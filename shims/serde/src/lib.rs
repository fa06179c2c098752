//! Minimal offline stand-in for the `serde` crate.
//!
//! The build container has no access to crates.io, so this workspace
//! vendors the small slice of serde's API it actually uses: a JSON-like
//! [`Value`] data model, [`Serialize`]/[`Deserialize`] traits mapping
//! types to and from `Value`, and (behind the `derive` feature) derive
//! macros for plain structs with named fields and fieldless enums.
//!
//! Numbers are carried as `f64`, which is exact for every integer the
//! workspace serializes (counters and sizes well below 2^53).

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like value tree: the serialization data model.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<Value>),
    /// JSON object as an ordered field list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a field of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number contained in this value, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Serialization or deserialization failure.
#[derive(Clone, Debug)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Convert `self` to the data model.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuild from the data model.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

macro_rules! impl_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                // Round-tripping through f64 is the shim's data model
                // (mirroring JSON); lossy casts are inherent to it.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                v.as_f64()
                    .map(|x| x as $t)
                    .ok_or_else(|| Error(format!("expected number, got {v:?}")))
            }
        }
    )*};
}

impl_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error(format!("expected bool, got {v:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error(format!("expected string, got {v:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error(format!("expected array, got {v:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeMap<String, T> {
    fn to_value(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<T: Deserialize> Deserialize for std::collections::BTreeMap<String, T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let Value::Obj(fields) = v else {
            return Err(Error(format!("expected object, got {v:?}")));
        };
        let mut map = std::collections::BTreeMap::new();
        for (k, val) in fields {
            let parsed = T::from_value(val).map_err(|e| Error(format!("key {k}: {}", e.0)))?;
            if map.insert(k.clone(), parsed).is_some() {
                return Err(Error(format!("duplicate key {k}")));
            }
        }
        Ok(map)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(f64::from_value(&2.5f64.to_value()).unwrap(), 2.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        let v = vec![1usize, 2, 3];
        assert_eq!(Vec::<usize>::from_value(&v.to_value()).unwrap(), v);
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        let m: std::collections::BTreeMap<String, u32> = [("a".to_string(), 1)].into();
        assert_eq!(
            std::collections::BTreeMap::<String, u32>::from_value(&m.to_value()).unwrap(),
            m
        );
        let dup = Value::Obj(vec![
            ("a".into(), Value::Num(1.0)),
            ("a".into(), Value::Num(2.0)),
        ]);
        assert!(std::collections::BTreeMap::<String, u32>::from_value(&dup).is_err());
    }

    #[test]
    fn object_lookup() {
        let v = Value::Obj(vec![("a".into(), Value::Num(1.0))]);
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(1.0));
        assert!(v.get("b").is_none());
    }
}
