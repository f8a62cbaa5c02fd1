//! The quantity-rich corpus generator.
//!
//! The paper crawls physics-test sites, electronics forums, industrial
//! knowledge graphs and a general-domain knowledge graph (§IV-C1). Those
//! crawls are gated, so this generator produces the same *kind* of text:
//! bilingual sentences dense with quantities in diverse unit surface forms,
//! interleaved with decoy tokens (device codes such as `LPUI-1T`, years,
//! version strings) that trip naive heuristic annotators — the failure mode
//! Algorithm 1's masked-LM filter exists to catch.

use crate::noise::decoy_token;
use crate::sentence::{Domain, QuantitySpan, Sentence};
use dimkb::DimUnitKb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A quantity slot in a template: quantity kind plus candidate units with
/// log10-uniform value ranges.
struct Slot {
    kind: &'static str,
    units: &'static [(&'static str, f64, f64)],
}

/// A template part.
enum Part {
    /// Literal text.
    T(&'static str),
    /// Quantity slot by index.
    Q(usize),
    /// Entity-name slot.
    E,
    /// Decoy token (device code / year / version).
    D,
}

struct Template {
    domain: Domain,
    parts: &'static [Part],
    slots: &'static [Slot],
    entities: &'static [&'static str],
}

use Part::{D, E, Q, T};

const TEMPLATES: &[Template] = &[
    // ---- physics tests (zh) ------------------------------------------------
    Template {
        domain: Domain::PhysicsTest,
        parts: &[T("一个物体的质量为"), Q(0), T("，受到"), Q(1), T("的水平拉力，求物体的加速度。")],
        slots: &[
            Slot { kind: "Mass", units: &[("KiloGM", 0.0, 2.0), ("GM", 2.0, 3.5)] },
            Slot { kind: "Force", units: &[("N", 0.3, 2.3), ("KiloN", -0.5, 0.7)] },
        ],
        entities: &[],
    },
    Template {
        domain: Domain::PhysicsTest,
        parts: &[T("某汽车以"), Q(0), T("的速度匀速行驶了"), Q(1), T("，求它通过的路程。")],
        slots: &[
            Slot { kind: "Speed", units: &[("KM-PER-HR", 1.3, 2.1), ("M-PER-SEC", 0.7, 1.5)] },
            Slot { kind: "Duration", units: &[("HR", 0.0, 0.9), ("MIN", 0.8, 1.9)] },
        ],
        entities: &[],
    },
    Template {
        domain: Domain::PhysicsTest,
        parts: &[T("在温度为"), Q(0), T("的环境中，液体的表面张力系数约为"), Q(1), T("。")],
        slots: &[
            Slot { kind: "AmbientTemperature", units: &[("DEG-C", 0.7, 1.7)] },
            Slot {
                kind: "SurfaceTension",
                units: &[("N-PER-M", -2.0, -0.7), ("DYN-PER-CentiM", 0.5, 2.0)],
            },
        ],
        entities: &[],
    },
    Template {
        domain: Domain::PhysicsTest,
        parts: &[
            T("A ball is dropped from a height of "),
            Q(0),
            T(" and hits the ground after "),
            Q(1),
            T("."),
        ],
        slots: &[
            Slot { kind: "Height", units: &[("M", 0.3, 2.0), ("FT", 0.8, 2.4)] },
            Slot { kind: "Duration", units: &[("SEC", -0.2, 1.0)] },
        ],
        entities: &[],
    },
    // ---- electronics forums ---------------------------------------------------
    Template {
        domain: Domain::Electronics,
        parts: &[T("这款"), E, T("手机搭载"), Q(0), T("电池，屏幕尺寸为"), Q(1), T("，型号是"), D, T("。")],
        slots: &[
            Slot { kind: "BatteryCapacity", units: &[("MilliAH", 3.3, 3.9)] },
            Slot { kind: "Diameter", units: &[("IN", 0.6, 1.05)] },
        ],
        entities: &["星河", "蓝鲸", "凌云", "极光", "曙光"],
    },
    Template {
        domain: Domain::Electronics,
        parts: &[T("The "), E, T(" router offers "), Q(0), T(" of bandwidth and draws "), Q(1), T(" under load, firmware "), D, T(".")],
        slots: &[
            Slot {
                kind: "Bandwidth",
                units: &[("MegaBIT-PER-SEC", 1.5, 3.1), ("GigaBIT-PER-SEC", -0.2, 1.1)],
            },
            Slot { kind: "ElectricPower", units: &[("W", 0.5, 1.8)] },
        ],
        entities: &["Nebula", "Falcon", "Vertex", "Aurora"],
    },
    Template {
        domain: Domain::Electronics,
        parts: &[T("电容器的容量为"), Q(0), T("，额定电压"), Q(1), T("，采用"), D, T("封装。")],
        slots: &[
            Slot { kind: "Capacitance", units: &[("MicroF-FARAD", -0.5, 2.5), ("NanoF-FARAD", 0.5, 2.9)] },
            Slot { kind: "RatedVoltage", units: &[("V", 0.5, 2.6)] },
        ],
        entities: &[],
    },
    // ---- industrial KG ------------------------------------------------------------
    Template {
        domain: Domain::Industrial,
        parts: &[E, T("泵的额定流量为"), Q(0), T("，扬程对应压力"), Q(1), T("，出厂编号"), D, T("。")],
        slots: &[
            Slot {
                kind: "VolumeFlowRate",
                units: &[("L-PER-MIN", 1.0, 2.9), ("M3-PER-SEC", -2.5, -0.5)],
            },
            Slot { kind: "Pressure", units: &[("KiloPA", 1.7, 3.0), ("BAR", -0.2, 1.1), ("PSI", 0.9, 2.2)] },
        ],
        entities: &["磐石", "巨浪", "天枢", "启明"],
    },
    Template {
        domain: Domain::Industrial,
        parts: &[T("该车间传送带长"), Q(0), T("，额定载荷"), Q(1), T("，每小时吞吐量"), Q(2), T("。")],
        slots: &[
            Slot { kind: "Distance", units: &[("M", 0.7, 2.0)] },
            Slot { kind: "Load", units: &[("KiloN", -0.3, 1.0), ("KGF", 1.3, 3.0)] },
            Slot { kind: "MassFlowRate", units: &[("T-PER-HR", 0.0, 1.7)] },
        ],
        entities: &[],
    },
    Template {
        domain: Domain::Industrial,
        parts: &[T("The "), E, T(" furnace runs at "), Q(0), T(" with a thermal output of "), Q(1), T(".")],
        slots: &[
            Slot { kind: "Temperature", units: &[("DEG-C", 2.4, 3.2), ("K", 2.6, 3.3), ("DEG-F", 2.7, 3.4)] },
            Slot { kind: "Power", units: &[("KiloW", 1.0, 3.0), ("MegaW", -0.5, 1.0), ("HP", 1.5, 3.2)] },
        ],
        entities: &["Titan", "Vulcan", "Borealis"],
    },
    // ---- general domain -------------------------------------------------------------
    Template {
        domain: Domain::General,
        parts: &[E, T("的身高是"), Q(0), T("，体重"), Q(1), T("。")],
        slots: &[
            Slot { kind: "Height", units: &[("M", 0.2, 0.32), ("CentiM", 2.17, 2.3), ("FT", 0.72, 0.82)] },
            Slot { kind: "BodyMass", units: &[("KiloGM", 1.6, 2.05), ("JIN-ZH", 1.9, 2.35), ("LB", 2.0, 2.4)] },
        ],
        entities: &["王伟", "李娜", "张强", "陈静", "刘洋"],
    },
    Template {
        domain: Domain::General,
        parts: &[T("今天"), E, T("气温达到"), Q(0), T("，西北风"), Q(1), T("。")],
        slots: &[
            Slot { kind: "Temperature", units: &[("DEG-C", 0.5, 1.6)] },
            Slot { kind: "WindSpeed", units: &[("M-PER-SEC", 0.3, 1.4), ("KM-PER-HR", 0.9, 1.9)] },
        ],
        entities: &["上海", "北京", "广州", "哈尔滨"],
    },
    Template {
        domain: Domain::General,
        parts: &[E, T("大桥全长"), Q(0), T("，桥面宽"), Q(1), T("，于"), D, T("年建成通车。")],
        slots: &[
            Slot { kind: "Distance", units: &[("KiloM", 0.0, 1.6), ("M", 2.3, 3.6), ("LI-ZH", 0.3, 1.6)] },
            Slot { kind: "Width", units: &[("M", 1.0, 1.7)] },
        ],
        entities: &["长江", "钱塘江", "珠江", "黄河"],
    },
    Template {
        domain: Domain::General,
        parts: &[T("The reservoir stores "), Q(0), T(" of water covering "), Q(1), T(".")],
        slots: &[
            Slot {
                kind: "StorageVolume",
                units: &[("M3", 4.0, 7.5), ("MegaL", 1.0, 3.5), ("ACRE", 2.0, 4.0)],
            },
            Slot { kind: "LandArea", units: &[("KM2", 0.3, 2.5), ("HA", 1.5, 4.0), ("MU-ZH", 2.5, 5.0)] },
        ],
        entities: &[],
    },
    Template {
        domain: Domain::General,
        parts: &[T("这袋大米重"), Q(0), T("，价格比上月便宜了"), Q(1), T("。")],
        slots: &[
            Slot { kind: "Weight", units: &[("JIN-ZH", 0.5, 1.5), ("KiloGM", 0.3, 1.3)] },
            Slot { kind: "Ratio", units: &[("PERCENT", 0.3, 1.5)] },
        ],
        entities: &[],
    },
];

/// Configuration for corpus generation.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Number of sentences.
    pub sentences: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig { sentences: 800, seed: 11 }
    }
}

/// How a unit surface form is rendered within a sentence.
fn render_unit(rng: &mut StdRng, kb: &DimUnitKb, code: &str, zh_context: bool) -> (String, String) {
    // lint:allow(no_panic, template unit codes are curated constants cross-checked against the KB by the corpus tests; an unknown code is a build-time data bug, not a runtime input)
    let unit = kb.unit_by_code(code).unwrap_or_else(|| panic!("unknown unit {code}"));
    let surface = if zh_context {
        match rng.gen_range(0..10) {
            0..=6 => unit.label_zh.clone(),
            7..=8 => unit.symbol.clone(),
            _ => unit
                .aliases
                .first()
                .cloned()
                .unwrap_or_else(|| unit.symbol.clone()),
        }
    } else {
        match rng.gen_range(0..10) {
            0..=4 => unit.symbol.clone(),
            5..=8 => unit.label_en.clone(),
            _ => unit
                .aliases
                .first()
                .cloned()
                .unwrap_or_else(|| unit.label_en.clone()),
        }
    };
    (surface, unit.code.clone())
}

/// Generates the corpus.
pub fn generate(kb: &DimUnitKb, config: &CorpusConfig) -> Vec<Sentence> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.sentences);
    for _ in 0..config.sentences {
        let template = &TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
        out.push(instantiate(kb, template, &mut rng));
    }
    out
}

fn instantiate(kb: &DimUnitKb, template: &Template, rng: &mut StdRng) -> Sentence {
    // Pre-draw slot values.
    let zh_context = template
        .parts
        .iter()
        .any(|p| matches!(p, T(s) if s.chars().any(dim_embed::tokenize::is_cjk)));
    let mut text = String::new();
    let mut quantities = Vec::new();
    let mut decoys = Vec::new();
    for part in template.parts {
        match part {
            T(s) => text.push_str(s),
            E => {
                let name = template.entities[rng.gen_range(0..template.entities.len())];
                text.push_str(name);
            }
            D => {
                let tok = decoy_token(rng);
                let start = text.len();
                text.push_str(&tok);
                decoys.push((start, text.len()));
            }
            Q(i) => {
                let slot = &template.slots[*i];
                let (code, lo, hi) = slot.units[rng.gen_range(0..slot.units.len())];
                let value = round_sig(10f64.powf(rng.gen_range(lo..hi)), 3);
                let (surface, unit_code) = render_unit(rng, kb, code, zh_context);
                let start = text.len();
                let value_str = fmt_value(value);
                text.push_str(&value_str);
                let value_end = text.len();
                // Latin units get a space after the value; CJK units do not.
                let needs_space =
                    surface.chars().next().is_some_and(|c| c.is_ascii_alphabetic());
                if needs_space {
                    text.push(' ');
                }
                let unit_start = text.len();
                text.push_str(&surface);
                let end = text.len();
                quantities.push(QuantitySpan {
                    start,
                    end,
                    value,
                    value_span: (start, value_end),
                    unit_surface: surface,
                    unit_span: (unit_start, end),
                    unit_code,
                    kind: slot.kind.to_string(),
                });
            }
        }
    }
    Sentence { text, quantities, decoys, domain: template.domain }
}

pub(crate) fn fmt_value(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 && v.abs() < 1e15 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v}")
    }
}

pub(crate) fn round_sig(v: f64, digits: i32) -> f64 {
    if v == 0.0 {
        return 0.0;
    }
    let mag = v.abs().log10().floor() as i32;
    let factor = 10f64.powi(digits - 1 - mag);
    (v * factor).round() / factor
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Sentence> {
        generate(&DimUnitKb::shared(), &CorpusConfig { sentences: 300, seed: 5 })
    }

    #[test]
    fn gold_spans_are_byte_accurate() {
        for s in corpus() {
            for q in &s.quantities {
                let val = &s.text[q.value_span.0..q.value_span.1];
                assert!(val.parse::<f64>().is_ok(), "value span {val:?} in {}", s.text);
                assert_eq!(&s.text[q.unit_span.0..q.unit_span.1], q.unit_surface);
            }
        }
    }

    #[test]
    fn every_sentence_has_quantities() {
        for s in corpus() {
            assert!(s.has_quantity(), "{}", s.text);
        }
    }

    #[test]
    fn all_domains_are_covered() {
        let sents = corpus();
        for d in Domain::ALL {
            assert!(sents.iter().any(|s| s.domain == d), "missing domain {d:?}");
        }
    }

    #[test]
    fn decoys_appear() {
        let sents = corpus();
        let n: usize = sents.iter().map(|s| s.decoys.len()).sum();
        assert!(n > 10, "got {n} decoys");
    }

    #[test]
    fn unit_codes_resolve_in_kb() {
        let kb = DimUnitKb::shared();
        for s in corpus() {
            for q in &s.quantities {
                assert!(kb.unit_by_code(&q.unit_code).is_some(), "{}", q.unit_code);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = corpus();
        let b = corpus();
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].text, b[0].text);
        assert_eq!(a[42].text, b[42].text);
    }

    #[test]
    fn bilingual_mix() {
        let sents = corpus();
        let zh = sents.iter().filter(|s| s.text.chars().any(dim_embed::tokenize::is_cjk)).count();
        assert!(zh > 0 && zh < sents.len(), "both languages expected, zh={zh}");
    }
}
