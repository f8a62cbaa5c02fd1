//! Derive macros for the compat `serde` crate.
//!
//! Written against `proc_macro` alone (no `syn`/`quote` — the offline build
//! resolves only path dependencies). The parser walks the raw token stream,
//! extracts the shape of the struct/enum plus `#[serde(default)]` field
//! attributes, and emits impl blocks as source text parsed back into a
//! `TokenStream`.
//!
//! Supported shapes — exactly what the workspace uses:
//! - structs with named fields (incl. `#[serde(default)]` and
//!   `#[serde(default = "path")]`)
//! - tuple structs (newtype `UnitId(pub u32)` serializes transparently)
//! - unit structs
//! - enums with unit, tuple, and struct variants (externally tagged:
//!   unit variants as `"Name"`, others as `{"Name": ...}`)

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

fn expand(input: TokenStream, ser: bool) -> TokenStream {
    let parsed = match parse_input(input) {
        Ok(p) => p,
        Err(msg) => {
            return format!("compile_error!({msg:?});").parse().unwrap();
        }
    };
    let code = if ser { gen_serialize(&parsed) } else { gen_deserialize(&parsed) };
    code.parse().unwrap_or_else(|e| {
        format!("compile_error!(\"serde_derive produced invalid code: {e:?}\");").parse().unwrap()
    })
}

// ---- model -----------------------------------------------------------------

struct Input {
    name: String,
    kind: Kind,
}

enum Kind {
    StructNamed(Vec<Field>),
    StructTuple(usize),
    StructUnit,
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    /// `None` = required; `Some(None)` = `#[serde(default)]`;
    /// `Some(Some(path))` = `#[serde(default = "path")]`.
    default: Option<Option<String>>,
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

// ---- parsing ---------------------------------------------------------------

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;

    // Outer attributes and visibility.
    skip_attrs(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);

    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;

    let kind = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::StructNamed(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::StructTuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::StructUnit,
            other => return Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("expected enum body, found {other:?}")),
        },
        other => return Err(format!("cannot derive for `{other}`")),
    };

    Ok(Input { name, kind })
}

fn skip_attrs(tokens: &[TokenTree], i: &mut usize) {
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(_))) =
        (tokens.get(*i), tokens.get(*i + 1))
    {
        if p.as_char() != '#' {
            break;
        }
        *i += 2;
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Parses one `#[...]` attribute already split into (`#`, group); returns
/// the serde default spec if the attribute is `#[serde(default...)]`.
fn serde_default_of(group: &proc_macro::Group) -> Option<Option<String>> {
    let inner: Vec<TokenTree> = group.stream().into_iter().collect();
    match inner.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let Some(TokenTree::Group(args)) = inner.get(1) else { return None };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    match args.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "default" => {}
        _ => return None,
    }
    // `default = "path"` — the literal keeps its surrounding quotes.
    if let (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) = (args.get(1), args.get(2))
    {
        if eq.as_char() == '=' {
            let raw = lit.to_string();
            let path = raw.trim_matches('"').to_string();
            return Some(Some(path));
        }
    }
    Some(None)
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0usize;
    let mut fields = Vec::new();
    while i < tokens.len() {
        // Attributes (capture serde defaults, skip the rest).
        let mut default = None;
        while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
            (tokens.get(i), tokens.get(i + 1))
        {
            if p.as_char() != '#' {
                break;
            }
            if let Some(d) = serde_default_of(g) {
                default = Some(d);
            }
            i += 2;
        }
        if i >= tokens.len() {
            break;
        }
        skip_visibility(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field `{name}`, found {other:?}")),
        }
        // Skip the type: consume until a top-level `,` (tracking `<...>`
        // nesting, which token streams do not group).
        let mut angle = 0i32;
        while let Some(tt) = tokens.get(i) {
            match tt {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, default });
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut angle = 0i32;
    let mut count = 1usize;
    let mut trailing_comma = false;
    for tt in &tokens {
        trailing_comma = false;
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                count += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0usize;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream())?)
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the separator comma.
        while let Some(tt) = tokens.get(i) {
            if let TokenTree::Punct(p) = tt {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// ---- codegen: Serialize ----------------------------------------------------

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::StructNamed(fields) => {
            let mut pushes = String::new();
            for f in fields {
                pushes.push_str(&format!(
                    "__fields.push((::std::string::String::from({:?}), \
                     ::serde::Serialize::serialize(&self.{})));\n",
                    f.name, f.name
                ));
            }
            format!(
                "let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                 ::std::vec::Vec::new();\n{pushes}::serde::Value::Obj(__fields)"
            )
        }
        Kind::StructTuple(1) => "::serde::Serialize::serialize(&self.0)".to_string(),
        Kind::StructTuple(n) => {
            let items: Vec<String> =
                (0..*n).map(|i| format!("::serde::Serialize::serialize(&self.{i})")).collect();
            format!("::serde::Value::Arr(::std::vec![{}])", items.join(", "))
        }
        Kind::StructUnit => "::serde::Value::Null".to_string(),
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vname} => \
                         ::serde::Value::Str(::std::string::String::from({vname:?})),\n"
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(__f0) => ::serde::Value::Obj(::std::vec![(\
                         ::std::string::String::from({vname:?}), \
                         ::serde::Serialize::serialize(__f0))]),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Serialize::serialize(__f{i})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => ::serde::Value::Obj(::std::vec![(\
                             ::std::string::String::from({vname:?}), \
                             ::serde::Value::Arr(::std::vec![{}]))]),\n",
                            binds.join(", "),
                            items.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let items: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from({:?}), \
                                     ::serde::Serialize::serialize({}))",
                                    f.name, f.name
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => ::serde::Value::Obj(::std::vec![(\
                             ::std::string::String::from({vname:?}), \
                             ::serde::Value::Obj(::std::vec![{}]))]),\n",
                            binds.join(", "),
                            items.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

// ---- codegen: Deserialize --------------------------------------------------

/// Expression deserializing one named field out of `__obj`.
fn field_expr(f: &Field, context: &str) -> String {
    let fname = &f.name;
    let missing = match &f.default {
        None => format!(
            "return ::std::result::Result::Err(::serde::DeError::missing({fname:?}, {context:?}))"
        ),
        Some(None) => "::core::default::Default::default()".to_string(),
        Some(Some(path)) => format!("{path}()"),
    };
    format!(
        "{fname}: match ::serde::get_field(__obj, {fname:?}) {{\n\
         ::std::option::Option::Some(__x) => ::serde::Deserialize::deserialize(__x)?,\n\
         ::std::option::Option::None => {missing},\n}}"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::StructNamed(fields) => {
            let exprs: Vec<String> = fields.iter().map(|f| field_expr(f, name)).collect();
            format!(
                "let __obj = __v.as_obj().ok_or_else(|| \
                 ::serde::DeError::expected(\"object\", {name:?}, __v))?;\n\
                 ::std::result::Result::Ok({name} {{\n{}\n}})",
                exprs.join(",\n")
            )
        }
        Kind::StructTuple(1) => {
            format!(
                "::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__v)?))"
            )
        }
        Kind::StructTuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::deserialize(&__arr[{i}])?"))
                .collect();
            format!(
                "let __arr = __v.as_arr().ok_or_else(|| \
                 ::serde::DeError::expected(\"array\", {name:?}, __v))?;\n\
                 if __arr.len() != {n} {{\n\
                 return ::std::result::Result::Err(::serde::DeError(::std::format!(\
                 \"{name}: expected {n} elements, found {{}}\", __arr.len())));\n}}\n\
                 ::std::result::Result::Ok({name}({}))",
                items.join(", ")
            )
        }
        Kind::StructUnit => format!("::std::result::Result::Ok({name})"),
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => unit_arms.push_str(&format!(
                        "{vname:?} => return ::std::result::Result::Ok({name}::{vname}),\n"
                    )),
                    VariantKind::Tuple(1) => tagged_arms.push_str(&format!(
                        "{vname:?} => return ::std::result::Result::Ok({name}::{vname}(\
                         ::serde::Deserialize::deserialize(__inner)?)),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let ctx = format!("{name}::{vname}");
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::deserialize(&__arr[{i}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "{vname:?} => {{\n\
                             let __arr = __inner.as_arr().ok_or_else(|| \
                             ::serde::DeError::expected(\"array\", {ctx:?}, __inner))?;\n\
                             if __arr.len() != {n} {{\n\
                             return ::std::result::Result::Err(::serde::DeError(::std::format!(\
                             \"{ctx}: expected {n} elements, found {{}}\", __arr.len())));\n}}\n\
                             return ::std::result::Result::Ok({name}::{vname}({}));\n}}\n",
                            items.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let ctx = format!("{name}::{vname}");
                        let exprs: Vec<String> =
                            fields.iter().map(|f| field_expr(f, &ctx)).collect();
                        tagged_arms.push_str(&format!(
                            "{vname:?} => {{\n\
                             let __obj = __inner.as_obj().ok_or_else(|| \
                             ::serde::DeError::expected(\"object\", {ctx:?}, __inner))?;\n\
                             return ::std::result::Result::Ok({name}::{vname} {{\n{}\n}});\n}}\n",
                            exprs.join(",\n")
                        ));
                    }
                }
            }
            format!(
                "if let ::std::option::Option::Some(__s) = __v.as_str() {{\n\
                 match __s {{\n{unit_arms}_ => {{}}\n}}\n}}\n\
                 if let ::std::option::Option::Some(__fields) = __v.as_obj() {{\n\
                 if __fields.len() == 1 {{\n\
                 let (__k, __inner) = &__fields[0];\n\
                 let _ = __inner;\n\
                 match __k.as_str() {{\n{tagged_arms}_ => {{}}\n}}\n}}\n}}\n\
                 ::std::result::Result::Err(::serde::DeError::unknown_variant({name:?}))"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__v: &::serde::Value) -> \
         ::std::result::Result<Self, ::serde::DeError> {{\n\
         let _ = __v;\n{body}\n}}\n}}\n"
    )
}
