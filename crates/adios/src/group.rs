//! I/O groups: declared variable schemas plus the attribute system.
//!
//! As in ADIOS, an application declares a *group* of variables once, then
//! writes values for those variables each output step. Attributes annotate a
//! group or variable with metadata; the container runtime uses them to record
//! data-processing provenance when analytics are taken offline (which
//! analysis operations already ran, and which still must be applied
//! post-hoc).

use std::collections::BTreeMap;
use std::fmt;

use crate::types::{DataType, Value};

/// An attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Text attribute.
    Str(String),
    /// Integer attribute.
    Int(i64),
    /// Floating-point attribute.
    Float(f64),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
        }
    }
}

/// Declaration of one variable in a group.
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    /// Variable name, unique within the group.
    pub name: String,
    /// Element type.
    pub dtype: DataType,
}

/// A declared I/O group.
#[derive(Clone, Debug, Default)]
pub struct Group {
    name: String,
    vars: BTreeMap<String, VarDecl>,
    attrs: BTreeMap<String, AttrValue>,
}

impl Group {
    /// Creates an empty group.
    pub fn new(name: impl Into<String>) -> Group {
        Group { name: name.into(), vars: BTreeMap::new(), attrs: BTreeMap::new() }
    }

    /// The group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a variable; replaces any prior declaration of the same name.
    pub fn define_var(&mut self, name: impl Into<String>, dtype: DataType) -> &mut Self {
        let name = name.into();
        self.vars.insert(name.clone(), VarDecl { name, dtype });
        self
    }

    /// Looks up a variable declaration.
    pub fn var(&self, name: &str) -> Option<&VarDecl> {
        self.vars.get(name)
    }

    /// Iterates declared variables in name order.
    pub fn vars(&self) -> impl Iterator<Item = &VarDecl> {
        self.vars.values()
    }

    /// Number of declared variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Sets a group attribute.
    pub fn set_attr(&mut self, key: impl Into<String>, value: AttrValue) -> &mut Self {
        self.attrs.insert(key.into(), value);
        self
    }

    /// Reads a group attribute.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.get(key)
    }

    /// Iterates attributes in key order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A name-sorted `Vec` map. A step carries a handful of variables and
/// attributes, and every stream fragment is one [`StepData`] that one
/// thread builds and another frees: a one-entry `BTreeMap` costs a whole
/// ~1.5 KB leaf (past the allocator's per-thread cache), a one-entry `Vec`
/// a tenth of that. Iteration is in name order, as a `BTreeMap`'s is.
#[derive(Clone, Debug)]
struct SmallMap<V>(Vec<(String, V)>);

impl<V> Default for SmallMap<V> {
    fn default() -> Self {
        SmallMap(Vec::new())
    }
}

impl<V> SmallMap<V> {
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    fn insert(&mut self, key: String, value: V) {
        match self.find(&key) {
            Ok(ix) => self.0[ix].1 = value,
            Err(ix) => self.0.insert(ix, (key, value)),
        }
    }

    fn get(&self, key: &str) -> Option<&V> {
        self.find(key).ok().map(|ix| &self.0[ix].1)
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &V)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// The data written for one output step of a group: values for (a subset of)
/// its declared variables, plus step-scoped attributes.
#[derive(Clone, Debug, Default)]
pub struct StepData {
    step: u64,
    values: SmallMap<Value>,
    attrs: SmallMap<AttrValue>,
}

/// Errors raised when writing a step against a group schema.
#[derive(Clone, Debug, PartialEq)]
pub enum WriteError {
    /// The variable was never declared in the group.
    UndeclaredVar(String),
    /// The value's element type differs from the declaration.
    TypeMismatch {
        /// Variable name.
        var: String,
        /// Declared type.
        declared: DataType,
        /// Provided type.
        provided: DataType,
    },
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::UndeclaredVar(v) => write!(f, "variable '{v}' not declared in group"),
            WriteError::TypeMismatch { var, declared, provided } => {
                write!(f, "variable '{var}' declared {declared} but written as {provided}")
            }
        }
    }
}

impl std::error::Error for WriteError {}

impl StepData {
    /// Starts an empty step record.
    pub fn new(step: u64) -> StepData {
        StepData { step, values: SmallMap::default(), attrs: SmallMap::default() }
    }

    /// The output-step index.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Records a value for `var`, validated against the group schema.
    pub fn write(&mut self, group: &Group, var: &str, value: Value) -> Result<(), WriteError> {
        let decl =
            group.var(var).ok_or_else(|| WriteError::UndeclaredVar(var.to_string()))?;
        if decl.dtype != value.dtype() {
            return Err(WriteError::TypeMismatch {
                var: var.to_string(),
                declared: decl.dtype,
                provided: value.dtype(),
            });
        }
        self.values.insert(var.to_string(), value);
        Ok(())
    }

    /// Records a value without schema validation (for schemaless relays).
    pub fn write_unchecked(&mut self, var: impl Into<String>, value: Value) {
        self.values.insert(var.into(), value);
    }

    /// Reads a recorded value.
    pub fn value(&self, var: &str) -> Option<&Value> {
        self.values.get(var)
    }

    /// Iterates recorded values in name order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = (&str, &Value)> {
        self.values.iter()
    }

    /// Sets a step attribute (e.g. provenance markers).
    pub fn set_attr(&mut self, key: impl Into<String>, value: AttrValue) {
        self.attrs.insert(key.into(), value);
    }

    /// Reads a step attribute.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.get(key)
    }

    /// Iterates step attributes in key order.
    pub fn attrs(&self) -> impl ExactSizeIterator<Item = (&str, &AttrValue)> {
        self.attrs.iter()
    }

    /// Total payload bytes across all recorded values.
    pub fn payload_bytes(&self) -> u64 {
        self.values.iter().map(|(_, v)| v.byte_len() as u64).sum()
    }

    /// Appends `suffix` to a comma-separated list attribute (creating it if
    /// absent). This is the idiom the container runtime uses for its
    /// `processed_by` / `pending_ops` provenance chains.
    pub fn append_list_attr(&mut self, key: &str, suffix: &str) {
        let next = match self.attrs.get(key) {
            Some(AttrValue::Str(s)) if !s.is_empty() => format!("{s},{suffix}"),
            _ => suffix.to_string(),
        };
        self.attrs.insert(key.to_string(), AttrValue::Str(next));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Dims;

    fn atoms_group() -> Group {
        let mut g = Group::new("atoms");
        g.define_var("x", DataType::F64)
            .define_var("id", DataType::I64)
            .set_attr("units", AttrValue::Str("lj".into()));
        g
    }

    #[test]
    fn schema_validates_types() {
        let g = atoms_group();
        let mut step = StepData::new(0);
        step.write(&g, "x", Value::from_f64(&[1.0], Dims::local1d(1)).unwrap()).unwrap();
        let err = step
            .write(&g, "x", Value::from_i64(&[1], Dims::local1d(1)).unwrap())
            .unwrap_err();
        assert!(matches!(err, WriteError::TypeMismatch { .. }));
        let err = step
            .write(&g, "nope", Value::scalar_i64(0))
            .unwrap_err();
        assert_eq!(err, WriteError::UndeclaredVar("nope".into()));
    }

    #[test]
    fn group_attrs_are_readable() {
        let g = atoms_group();
        assert_eq!(g.attr("units"), Some(&AttrValue::Str("lj".into())));
        assert_eq!(g.var_count(), 2);
        assert_eq!(g.vars().count(), 2);
    }

    #[test]
    fn payload_bytes_sums_values() {
        let g = atoms_group();
        let mut step = StepData::new(3);
        step.write(&g, "x", Value::from_f64(&[1.0, 2.0], Dims::local1d(2)).unwrap()).unwrap();
        step.write(&g, "id", Value::from_i64(&[1, 2], Dims::local1d(2)).unwrap()).unwrap();
        assert_eq!(step.payload_bytes(), 32);
        assert_eq!(step.step(), 3);
    }

    #[test]
    fn step_maps_iterate_in_name_order_and_overwrite_in_place() {
        let mut step = StepData::new(0);
        for name in ["z", "a", "m"] {
            step.write_unchecked(name, Value::scalar_i64(1));
            step.set_attr(name, AttrValue::Int(1));
        }
        step.write_unchecked("m", Value::from_i64(&[7, 8], Dims::local1d(2)).unwrap());
        step.set_attr("m", AttrValue::Int(2));
        let names: Vec<&str> = step.values().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "m", "z"]);
        let keys: Vec<&str> = step.attrs().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "m", "z"]);
        assert_eq!(step.value("m").unwrap().as_i64().unwrap(), &[7, 8]);
        assert_eq!(step.attr("m"), Some(&AttrValue::Int(2)));
        assert_eq!(step.value("q"), None);
        assert_eq!(step.payload_bytes(), 8 + 16 + 8, "an overwrite replaces, it does not add");
    }

    #[test]
    fn provenance_list_attr_appends() {
        let mut step = StepData::new(0);
        step.append_list_attr("processed_by", "helper");
        step.append_list_attr("processed_by", "bonds");
        assert_eq!(step.attr("processed_by"), Some(&AttrValue::Str("helper,bonds".into())));
    }

    #[test]
    fn redefining_var_replaces() {
        let mut g = Group::new("g");
        g.define_var("v", DataType::F32);
        g.define_var("v", DataType::F64);
        assert_eq!(g.var("v").unwrap().dtype, DataType::F64);
        assert_eq!(g.var_count(), 1);
    }
}
