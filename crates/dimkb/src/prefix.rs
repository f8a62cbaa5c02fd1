//! SI decimal prefixes, used to expand prefixable metric units into the full
//! prefixed family (`metre` → `kilometre`, `centimetre`, …), mirroring how
//! QUDT reaches its unit count.

/// An SI decimal prefix (a const table of `&'static str` data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiPrefix {
    /// English prefix name, e.g. `kilo`.
    pub name_en: &'static str,
    /// Chinese prefix name, e.g. `千`.
    pub name_zh: &'static str,
    /// Prefix symbol, e.g. `k`.
    pub symbol: &'static str,
    /// Power of ten, e.g. `3`.
    pub power: i8,
    /// How common the prefix is in everyday text, in `[0, 1]`; used to scale
    /// the popularity of prefix-expanded units (the paper's observation that
    /// "centimetre" is frequent while "decimetre" is rare).
    pub commonness: f64,
}

impl SiPrefix {
    /// The multiplicative factor `10^power`.
    pub fn factor(&self) -> f64 {
        10f64.powi(self.power as i32)
    }
}

/// The twenty SI decimal prefixes (quetta/ronna families omitted, matching
/// the 2001 SI brochure the paper cites).
pub const SI_PREFIXES: &[SiPrefix] = &[
    SiPrefix { name_en: "yotta", name_zh: "尧", symbol: "Y", power: 24, commonness: 0.02 },
    SiPrefix { name_en: "zetta", name_zh: "泽", symbol: "Z", power: 21, commonness: 0.02 },
    SiPrefix { name_en: "exa", name_zh: "艾", symbol: "E", power: 18, commonness: 0.03 },
    SiPrefix { name_en: "peta", name_zh: "拍", symbol: "P", power: 15, commonness: 0.05 },
    SiPrefix { name_en: "tera", name_zh: "太", symbol: "T", power: 12, commonness: 0.15 },
    SiPrefix { name_en: "giga", name_zh: "吉", symbol: "G", power: 9, commonness: 0.35 },
    SiPrefix { name_en: "mega", name_zh: "兆", symbol: "M", power: 6, commonness: 0.45 },
    SiPrefix { name_en: "kilo", name_zh: "千", symbol: "k", power: 3, commonness: 0.95 },
    SiPrefix { name_en: "hecto", name_zh: "百", symbol: "h", power: 2, commonness: 0.12 },
    SiPrefix { name_en: "deca", name_zh: "十", symbol: "da", power: 1, commonness: 0.05 },
    SiPrefix { name_en: "deci", name_zh: "分", symbol: "d", power: -1, commonness: 0.10 },
    SiPrefix { name_en: "centi", name_zh: "厘", symbol: "c", power: -2, commonness: 0.85 },
    SiPrefix { name_en: "milli", name_zh: "毫", symbol: "m", power: -3, commonness: 0.90 },
    SiPrefix { name_en: "micro", name_zh: "微", symbol: "µ", power: -6, commonness: 0.55 },
    SiPrefix { name_en: "nano", name_zh: "纳", symbol: "n", power: -9, commonness: 0.45 },
    SiPrefix { name_en: "pico", name_zh: "皮", symbol: "p", power: -12, commonness: 0.20 },
    SiPrefix { name_en: "femto", name_zh: "飞", symbol: "f", power: -15, commonness: 0.08 },
    SiPrefix { name_en: "atto", name_zh: "阿", symbol: "a", power: -18, commonness: 0.03 },
    SiPrefix { name_en: "zepto", name_zh: "仄", symbol: "z", power: -21, commonness: 0.02 },
    SiPrefix { name_en: "yocto", name_zh: "幺", symbol: "y", power: -24, commonness: 0.02 },
];

/// Looks up a prefix by its English name.
pub fn prefix_by_name(name: &str) -> Option<&'static SiPrefix> {
    SI_PREFIXES.iter().find(|p| p.name_en == name)
}

/// Looks up a prefix by its symbol.
pub fn prefix_by_symbol(symbol: &str) -> Option<&'static SiPrefix> {
    SI_PREFIXES.iter().find(|p| p.symbol == symbol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_prefixes_with_unique_symbols() {
        assert_eq!(SI_PREFIXES.len(), 20);
        let mut symbols: Vec<&str> = SI_PREFIXES.iter().map(|p| p.symbol).collect();
        symbols.sort_unstable();
        symbols.dedup();
        assert_eq!(symbols.len(), 20, "prefix symbols must be unique");
    }

    #[test]
    fn factors_match_powers() {
        let kilo = prefix_by_name("kilo").unwrap();
        assert_eq!(kilo.factor(), 1e3);
        let micro = prefix_by_symbol("µ").unwrap();
        assert!((micro.factor() - 1e-6).abs() < 1e-21);
    }

    #[test]
    fn common_prefixes_outrank_rare_ones() {
        let kilo = prefix_by_name("kilo").unwrap();
        let deci = prefix_by_name("deci").unwrap();
        assert!(kilo.commonness > deci.commonness, "kilometre is more common than decimetre");
    }

    #[test]
    fn lookup_misses_return_none() {
        assert!(prefix_by_name("mega2").is_none());
        assert!(prefix_by_symbol("q").is_none());
    }
}
