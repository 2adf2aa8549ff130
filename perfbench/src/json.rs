//! Small constructors over the vendored `serde_json::Value` (it has no `json!` macro).

use serde_json::Value;

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

pub fn str(text: &str) -> Value {
    Value::Str(text.to_string())
}

pub fn to_string(value: &Value) -> String {
    serde_json::to_string(value).expect("benchmark output serializes")
}
