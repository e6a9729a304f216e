//! Seeded `dprep detect` inputs shared by the CLI's integration tests.

const CITIES: [&str; 12] = [
    "atlanta", "boston", "chicago", "denver", "houston", "phoenix", "seattle", "portland", "miami",
    "detroit", "memphis", "raleigh",
];
const STATES: [&str; 6] = ["GA", "MA", "IL", "CO", "TX", "AZ"];
const SURNAMES: [&str; 6] = ["smith", "garcia", "chen", "okafor", "novak", "silva"];

/// A splitmix64 stream: enough randomness for a seeded table.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A 300-row `name,age,city,state` table drawn from `seed`, with some
/// misspelt cities and out-of-range ages, and its facts file: the city
/// lexicon and the plausible age range.
pub fn inputs(seed: u64) -> (String, String) {
    let mut draws = Draws(seed);
    let mut csv = String::from("name,age,city,state\n");
    for row in 0..300 {
        let surname = SURNAMES[draws.below(SURNAMES.len())];
        let mut age = (18 + draws.below(73)).to_string();
        if draws.below(25) == 0 {
            age = (150 + draws.below(800)).to_string();
        }
        let mut city = CITIES[draws.below(CITIES.len())].to_string();
        if draws.below(25) == 0 {
            // Doubling a letter makes a word no city in the lexicon is.
            let at = 1 + draws.below(city.len() - 1);
            city.insert(at, city.as_bytes()[at] as char);
        }
        let state = STATES[draws.below(STATES.len())];
        csv.push_str(&format!("{surname} {row:04},{age},{city},{state}\n"));
    }
    let mut facts = String::new();
    for city in CITIES {
        facts.push_str(&format!("lexicon\tcity\t{city}\n"));
    }
    facts.push_str("range\tage\t0\t110\n");
    (csv, facts)
}
