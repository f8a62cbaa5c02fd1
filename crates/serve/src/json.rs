//! Minimal deterministic JSON building and field extraction.
//!
//! Response bodies are assembled by hand (same discipline as
//! `dim_obs::Snapshot::to_json`): fields appear in the order the handler
//! writes them, floats use Rust's shortest-roundtrip `{}` formatting, and
//! equal inputs therefore always produce byte-identical bodies; strings go
//! through [`dim_json::write_string`]. Request bodies are parsed into a
//! [`dim_json::Value`] tree and fields are extracted by name.

use dim_json::Value;

/// Appends a finite `f64` (integers without a trailing `.0` would change
/// meaning here, so plain `{}` — shortest roundtrip — is used; non-finite
/// values have no JSON form and render as `null`).
pub fn number(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// An object field lookup over a parsed [`Value`].
pub fn field<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    match v {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

/// A required string field.
pub fn str_field<'v>(v: &'v Value, name: &str) -> Result<&'v str, String> {
    match field(v, name) {
        Some(Value::Str(s)) => Ok(s),
        Some(_) => Err(format!("field {name:?} must be a string")),
        None => Err(format!("missing field {name:?}")),
    }
}

/// An optional string field (absent ⇒ `None`, wrong type ⇒ error).
pub fn opt_str_field<'v>(v: &'v Value, name: &str) -> Result<Option<&'v str>, String> {
    match field(v, name) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(_) => Err(format!("field {name:?} must be a string")),
    }
}

/// A required numeric field.
pub fn num_field(v: &Value, name: &str) -> Result<f64, String> {
    match field(v, name) {
        Some(Value::Num(n)) => Ok(*n),
        Some(_) => Err(format!("field {name:?} must be a number")),
        None => Err(format!("missing field {name:?}")),
    }
}

/// Parses a request body into a [`Value`] tree.
pub fn parse(body: &str) -> Result<Value, String> {
    dim_json::parse_value(body).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_render_shortest_roundtrip() {
        let mut out = String::new();
        number(&mut out, 2.06);
        out.push(',');
        number(&mut out, 188.0);
        out.push(',');
        number(&mut out, f64::NAN);
        assert_eq!(out, "2.06,188,null");
    }

    #[test]
    fn field_extraction() {
        let v = parse("{\"mention\": \"km\", \"value\": 2.5}").expect("valid json");
        assert_eq!(str_field(&v, "mention"), Ok("km"));
        assert_eq!(num_field(&v, "value"), Ok(2.5));
        assert!(str_field(&v, "missing").is_err());
        assert!(num_field(&v, "mention").is_err());
        assert_eq!(opt_str_field(&v, "context"), Ok(None));
        assert!(opt_str_field(&v, "value").is_err());
        assert!(parse("{not json").is_err());
    }
}
