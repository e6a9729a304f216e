//! Tables: a schema plus rows, with column statistics and splits.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::TabularError;
use crate::record::Record;
use crate::schema::{AttrType, Attribute, Schema};
use crate::value::Value;

/// A relational table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Arc<Schema>,
    rows: Vec<Record>,
}

/// Summary statistics for one numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericStats {
    /// Minimum over non-missing numeric cells.
    pub min: f64,
    /// Maximum over non-missing numeric cells.
    pub max: f64,
    /// Mean over non-missing numeric cells.
    pub mean: f64,
    /// Number of non-missing numeric cells.
    pub count: usize,
}

impl Table {
    /// Creates an empty table over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Creates a table from pre-built records, validating they all share the
    /// table's schema.
    pub fn from_records(schema: Arc<Schema>, rows: Vec<Record>) -> Result<Self, TabularError> {
        for r in &rows {
            if !Arc::ptr_eq(r.schema(), &schema) && **r.schema() != *schema {
                return Err(TabularError::SchemaMismatch);
            }
        }
        Ok(Table { schema, rows })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// All rows.
    pub fn rows(&self) -> &[Record] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The same rows under a schema whose column `i` has type `dtype(i)`,
    /// names and descriptions unchanged. The rows' values are shared with
    /// the records they come from, not copied.
    pub(crate) fn retyped(self, dtype: impl Fn(usize) -> AttrType) -> Table {
        let attrs = self
            .schema
            .attributes()
            .iter()
            .enumerate()
            .map(|(i, attr)| Attribute {
                dtype: dtype(i),
                ..attr.clone()
            })
            .collect();
        let schema = Schema::new(attrs).expect("names unchanged").shared();
        let rows = self
            .rows
            .into_iter()
            .map(|record| record.with_schema(Arc::clone(&schema)))
            .collect();
        Table { schema, rows }
    }

    /// Appends a row built from raw values.
    pub fn push_values(&mut self, values: Vec<Value>) -> Result<(), TabularError> {
        let record = Record::new(Arc::clone(&self.schema), values)?;
        self.rows.push(record);
        Ok(())
    }

    /// Appends a pre-built record (must share the schema).
    pub fn push(&mut self, record: Record) -> Result<(), TabularError> {
        if !Arc::ptr_eq(record.schema(), &self.schema) && **record.schema() != *self.schema {
            return Err(TabularError::SchemaMismatch);
        }
        self.rows.push(record);
        Ok(())
    }

    /// The row at `index`.
    pub fn row(&self, index: usize) -> Option<&Record> {
        self.rows.get(index)
    }

    /// All values of the column at `attr_index`.
    pub fn column(&self, attr_index: usize) -> Result<Vec<&Value>, TabularError> {
        if attr_index >= self.schema.len() {
            return Err(TabularError::AttributeIndexOutOfRange {
                index: attr_index,
                len: self.schema.len(),
            });
        }
        Ok(self
            .rows
            .iter()
            .map(|r| r.get(attr_index).expect("arity validated on insert"))
            .collect())
    }

    /// Distinct non-missing values of a column with their frequencies,
    /// ordered by descending frequency then value.
    pub fn value_counts(&self, attr_index: usize) -> Result<Vec<(Value, usize)>, TabularError> {
        let col = self.column(attr_index)?;
        let mut counts: BTreeMap<(u8, i64, String), (Value, usize)> = BTreeMap::new();
        for v in col {
            if v.is_missing() {
                continue;
            }
            let entry = counts.entry(v.sort_key()).or_insert_with(|| (v.clone(), 0));
            entry.1 += 1;
        }
        let mut out: Vec<(Value, usize)> = counts.into_values().collect();
        out.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.sort_key().cmp(&b.0.sort_key()))
        });
        Ok(out)
    }

    /// Numeric summary statistics for a column (over cells with a numeric
    /// view), or `None` if the column has no numeric cells.
    pub fn numeric_stats(&self, attr_index: usize) -> Result<Option<NumericStats>, TabularError> {
        let col = self.column(attr_index)?;
        let nums: Vec<f64> = col.iter().filter_map(|v| v.as_f64()).collect();
        if nums.is_empty() {
            return Ok(None);
        }
        let min = nums.iter().copied().fold(f64::INFINITY, f64::min);
        let max = nums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = nums.iter().sum::<f64>() / nums.len() as f64;
        Ok(Some(NumericStats {
            min,
            max,
            mean,
            count: nums.len(),
        }))
    }

    /// Splits the table into `(head, tail)` at `at` rows. Used to carve a
    /// few-shot pool off the front of a generated dataset.
    pub fn split_at(&self, at: usize) -> (Table, Table) {
        let at = at.min(self.rows.len());
        let head = Table {
            schema: Arc::clone(&self.schema),
            rows: self.rows[..at].to_vec(),
        };
        let tail = Table {
            schema: Arc::clone(&self.schema),
            rows: self.rows[at..].to_vec(),
        };
        (head, tail)
    }

    /// Iterator over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Record> {
        self.rows.iter()
    }
}

impl<'a> IntoIterator for &'a Table {
    type Item = &'a Record;
    type IntoIter = std::slice::Iter<'a, Record>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};

    fn people() -> Table {
        let schema = Schema::from_names(&[("name", AttrType::Text), ("age", AttrType::Numeric)])
            .unwrap()
            .shared();
        let mut t = Table::new(schema);
        t.push_values(vec![Value::text("ann"), Value::Int(30)])
            .unwrap();
        t.push_values(vec![Value::text("bob"), Value::Int(40)])
            .unwrap();
        t.push_values(vec![Value::text("ann"), Value::Missing])
            .unwrap();
        t
    }

    #[test]
    fn push_validates_arity() {
        let mut t = people();
        assert!(t.push_values(vec![Value::text("only one")]).is_err());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn column_access() {
        let t = people();
        let names = t.column(0).unwrap();
        assert_eq!(names.len(), 3);
        assert!(t.column(5).is_err());
    }

    #[test]
    fn value_counts_sorted_by_frequency() {
        let t = people();
        let counts = t.value_counts(0).unwrap();
        assert_eq!(counts[0], (Value::text("ann"), 2));
        assert_eq!(counts[1], (Value::text("bob"), 1));
    }

    #[test]
    fn value_counts_skip_missing() {
        let t = people();
        let counts = t.value_counts(1).unwrap();
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn numeric_stats() {
        let t = people();
        let stats = t.numeric_stats(1).unwrap().unwrap();
        assert_eq!(stats.min, 30.0);
        assert_eq!(stats.max, 40.0);
        assert_eq!(stats.mean, 35.0);
        assert_eq!(stats.count, 2);
        assert!(t.numeric_stats(0).unwrap().is_none());
    }

    #[test]
    fn split_at_partitions_rows() {
        let t = people();
        let (head, tail) = t.split_at(1);
        assert_eq!(head.len(), 1);
        assert_eq!(tail.len(), 2);
        let (all, none) = t.split_at(99);
        assert_eq!(all.len(), 3);
        assert!(none.is_empty());
    }

    #[test]
    fn from_records_rejects_foreign_schema() {
        let t = people();
        let other = Schema::all_text(&["x"]).unwrap().shared();
        let foreign = Record::new(other, vec![Value::text("v")]).unwrap();
        let err = Table::from_records(Arc::clone(t.schema()), vec![foreign]).unwrap_err();
        assert_eq!(err, TabularError::SchemaMismatch);
    }

    #[test]
    fn iteration() {
        let t = people();
        assert_eq!(t.iter().count(), 3);
        assert_eq!((&t).into_iter().count(), 3);
    }
}
