//! Records: one row bound to a shared schema.

use std::fmt;
use std::sync::Arc;

use crate::error::TabularError;
use crate::schema::Schema;
use crate::value::Value;

/// One row of a table.
///
/// A record holds its values plus an [`Arc`] to the schema they conform to,
/// so records can travel independently of their table (the paper's problem
/// definitions hand the LLM one record — or one pair — at a time). The
/// values sit behind an [`Arc`] too: a clone shares the row instead of
/// copying it (one instance per checked cell all point at one row), and
/// [`set`](Record::set) copies a shared row before it writes.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    schema: Arc<Schema>,
    values: Arc<[Value]>,
}

impl Record {
    /// Builds a record, validating arity against the schema.
    pub fn new(schema: Arc<Schema>, values: Vec<Value>) -> Result<Self, TabularError> {
        if values.len() != schema.len() {
            return Err(TabularError::ArityMismatch {
                got: values.len(),
                expected: schema.len(),
            });
        }
        Ok(Record {
            schema,
            values: values.into(),
        })
    }

    /// The record's values under `schema`, which must have the same
    /// arity.
    pub(crate) fn with_schema(self, schema: Arc<Schema>) -> Record {
        debug_assert_eq!(schema.len(), self.values.len());
        Record {
            schema,
            values: self.values,
        }
    }

    /// The schema this record conforms to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// All values in attribute order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at attribute `index`.
    pub fn get(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }

    /// The value of the attribute named `name`.
    pub fn get_by_name(&self, name: &str) -> Option<&Value> {
        self.schema.index_of(name).and_then(|i| self.values.get(i))
    }

    /// Replaces the value at `index`, returning the previous value. A row
    /// shared with other clones is copied first, so they keep their value.
    pub fn set(&mut self, index: usize, value: Value) -> Result<Value, TabularError> {
        if index >= self.values.len() {
            return Err(TabularError::AttributeIndexOutOfRange {
                index,
                len: self.values.len(),
            });
        }
        Ok(std::mem::replace(
            &mut Arc::make_mut(&mut self.values)[index],
            value,
        ))
    }

    /// A copy of the record with the cell at `index` masked as
    /// [`Value::Missing`] — how data-imputation instances are produced.
    pub fn with_missing(&self, index: usize) -> Result<Record, TabularError> {
        let mut clone = self.clone();
        clone.set(index, Value::Missing)?;
        Ok(clone)
    }

    /// Projects the record onto the attributes at `indices` (feature
    /// selection, §3.4). The resulting record owns a fresh projected schema.
    pub fn project(&self, indices: &[usize]) -> Result<Record, TabularError> {
        let schema = self.schema.project(indices)?.shared();
        let mut values = Vec::with_capacity(indices.len());
        for &i in indices {
            values.push(self.values[i].clone());
        }
        Record::new(schema, values)
    }

    /// Indices of all missing cells.
    pub fn missing_indices(&self) -> Vec<usize> {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.is_missing().then_some(i))
            .collect()
    }

    /// Iterator over `(attribute name, value)` pairs.
    pub fn named_values(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.schema
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .zip(self.values.iter())
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::context::contextualize(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let schema = Schema::all_text(&["name", "city"]).unwrap().shared();
        Record::new(
            schema,
            vec![Value::text("carey's corner"), Value::text("marietta")],
        )
        .unwrap()
    }

    #[test]
    fn arity_is_validated() {
        let schema = Schema::all_text(&["a"]).unwrap().shared();
        let err = Record::new(schema, vec![]).unwrap_err();
        assert!(matches!(
            err,
            TabularError::ArityMismatch {
                got: 0,
                expected: 1
            }
        ));
    }

    #[test]
    fn get_by_name_and_index_agree() {
        let r = sample();
        assert_eq!(r.get(1), r.get_by_name("city"));
        assert_eq!(r.get_by_name("nope"), None);
    }

    #[test]
    fn with_missing_masks_one_cell() {
        let r = sample().with_missing(1).unwrap();
        assert!(r.get(1).unwrap().is_missing());
        assert!(!r.get(0).unwrap().is_missing());
        assert_eq!(r.missing_indices(), vec![1]);
    }

    #[test]
    fn set_returns_previous() {
        let mut r = sample();
        let prev = r.set(0, Value::text("new")).unwrap();
        assert_eq!(prev, Value::text("carey's corner"));
        assert_eq!(r.get(0), Some(&Value::text("new")));
        assert!(r.set(9, Value::Missing).is_err());
    }

    #[test]
    fn set_on_a_clone_leaves_the_shared_row_alone() {
        let original = sample();
        let mut copy = original.clone();
        copy.set(1, Value::text("atlanta")).unwrap();
        assert_eq!(original.get(1), Some(&Value::text("marietta")));
        assert_eq!(copy.get(1), Some(&Value::text("atlanta")));
        let masked = original.with_missing(0).unwrap();
        assert!(masked.get(0).unwrap().is_missing());
        assert_eq!(original.get(0), Some(&Value::text("carey's corner")));
    }

    #[test]
    fn projection_keeps_selected_attributes() {
        let r = sample();
        let p = r.project(&[1]).unwrap();
        assert_eq!(p.schema().names(), vec!["city"]);
        assert_eq!(p.values(), &[Value::text("marietta")]);
    }

    #[test]
    fn named_values_pairs_up() {
        let r = sample();
        let pairs: Vec<_> = r.named_values().collect();
        assert_eq!(pairs[0].0, "name");
        assert_eq!(pairs[1].1, &Value::text("marietta"));
    }
}
