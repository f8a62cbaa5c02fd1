//! N-MWP generators in Math23k and Ape210k style.
//!
//! The two source datasets are gated downloads; these generators reproduce
//! their *statistical profile* (Table VI): Chinese elementary problems,
//! uniform unit representation (the N-MWP property the paper criticizes),
//! with Ape210k skewing toward more operations per problem. Q-MWP variants
//! are then derived by quantity-oriented augmentation (`crate::augment`).

use crate::equation::{Node, Op};
use crate::problem::{MwpProblem, ProblemQuantity, Seg, Source};
use dimkb::degrade::{self, BudgetExceeded, Degraded, Policy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Observability (no-ops unless `dim_obs::enable()` was called).
static GEN_SPAN: dim_obs::Histogram = dim_obs::Histogram::new("mwp.gen");
static GEN_PROBLEMS: dim_obs::Counter = dim_obs::Counter::new("mwp.problems");

/// Configuration for problem generation.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of problems.
    pub count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { count: 225, seed: 101 }
    }
}

fn q(value: f64, code: &str, surface: &str) -> ProblemQuantity {
    ProblemQuantity {
        value,
        unit_code: if code.is_empty() { None } else { Some(code.to_string()) },
        surface: surface.to_string(),
        is_percent: surface == "%",
    }
}

fn t(s: &str) -> Seg {
    Seg::Text(s.to_string())
}

/// Nice random integer in a range, rounded to the step.
fn nice(rng: &mut StdRng, lo: i64, hi: i64, step: i64) -> f64 {
    let v = rng.gen_range(lo..=hi);
    ((v / step) * step).max(step) as f64
}

type Template = fn(&mut StdRng, u64, Source) -> MwpProblem;

fn dilution(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let mass = nice(rng, 50, 400, 10);
    let high = nice(rng, 10, 40, 5);
    let low = nice(rng, 2, (high as i64 / 2).max(3), 1);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("小王要将"),
            Seg::Qty(0),
            t("含药量"),
            Seg::Qty(1),
            t("的农药稀释成含药量"),
            Seg::Qty(2),
            t("的药水，"),
            t("需要加水多少"),
            Seg::AnswerUnit,
            t("？"),
        ],
        question_seg: 7,
        quantities: vec![q(mass, "KiloGM", "千克"), q(high, "PERCENT", "%"), q(low, "PERCENT", "%")],
        equation: Node::bin(
            Op::Sub,
            Node::bin(Op::Div, Node::bin(Op::Mul, Node::Q(0), Node::Q(1)), Node::Q(2)),
            Node::Q(0),
        ),
        answer_unit_code: Some("KiloGM".into()),
        answer_unit_surface: "千克".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn travel_distance(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let speed = nice(rng, 30, 120, 5);
    let hours = nice(rng, 2, 9, 1);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一辆汽车以每小时"),
            Seg::Qty(0),
            t("的速度匀速行驶了"),
            Seg::Qty(1),
            t("，"),
            t("这辆汽车一共行驶了多少"),
            Seg::AnswerUnit,
            t("？"),
        ],
        question_seg: 5,
        quantities: vec![q(speed, "KiloM", "千米"), q(hours, "HR", "小时")],
        equation: Node::bin(Op::Mul, Node::Q(0), Node::Q(1)),
        answer_unit_code: Some("KiloM".into()),
        answer_unit_surface: "千米".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn travel_time(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let speed = nice(rng, 40, 100, 10);
    let mult = nice(rng, 2, 8, 1);
    let dist = speed * mult;
    MwpProblem {
        id,
        source,
        segs: vec![
            t("甲乙两地相距"),
            Seg::Qty(0),
            t("，一列火车以每小时"),
            Seg::Qty(1),
            t("的速度从甲地开往乙地，"),
            t("需要多少"),
            Seg::AnswerUnit,
            t("到达？"),
        ],
        question_seg: 5,
        quantities: vec![q(dist, "KiloM", "千米"), q(speed, "KiloM", "千米")],
        equation: Node::bin(Op::Div, Node::Q(0), Node::Q(1)),
        answer_unit_code: Some("HR".into()),
        answer_unit_surface: "小时".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn rectangle_area(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let len = nice(rng, 6, 60, 2);
    let wid = nice(rng, 3, len as i64 - 1, 1);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一块长方形菜地长"),
            Seg::Qty(0),
            t("，宽"),
            Seg::Qty(1),
            t("，"),
            t("这块菜地的面积是多少平方"),
            Seg::AnswerUnit,
            t("？"),
        ],
        question_seg: 5,
        quantities: vec![q(len, "M", "米"), q(wid, "M", "米")],
        equation: Node::bin(Op::Mul, Node::Q(0), Node::Q(1)),
        answer_unit_code: Some("M2".into()),
        answer_unit_surface: "米".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn rectangle_perimeter(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let len = nice(rng, 5, 50, 1);
    let wid = nice(rng, 2, len as i64 - 1, 1);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一个长方形花坛长"),
            Seg::Qty(0),
            t("，宽"),
            Seg::Qty(1),
            t("，"),
            t("它的周长是多少"),
            Seg::AnswerUnit,
            t("？"),
        ],
        question_seg: 5,
        quantities: vec![q(len, "M", "米"), q(wid, "M", "米")],
        equation: Node::bin(Op::Mul, Node::bin(Op::Add, Node::Q(0), Node::Q(1)), Node::Const(2.0)),
        answer_unit_code: Some("M".into()),
        answer_unit_surface: "米".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn remaining_cargo(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let trips = nice(rng, 3, 9, 1);
    let per = nice(rng, 2, 8, 1);
    let total = trips * per + nice(rng, 5, 40, 5);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("仓库里有货物"),
            Seg::Qty(0),
            t("，运走了"),
            Seg::Qty(1),
            t("车，每车装"),
            Seg::Qty(2),
            t("，"),
            t("仓库里还剩多少"),
            Seg::AnswerUnit,
            t("的货物？"),
        ],
        question_seg: 7,
        quantities: vec![q(total, "TONNE", "吨"), q(trips, "", ""), q(per, "TONNE", "吨")],
        equation: Node::bin(Op::Sub, Node::Q(0), Node::bin(Op::Mul, Node::Q(1), Node::Q(2))),
        answer_unit_code: Some("TONNE".into()),
        answer_unit_surface: "吨".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn rope_pieces(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let per = nice(rng, 2, 6, 1);
    let total = per * nice(rng, 4, 15, 1);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一根绳子长"),
            Seg::Qty(0),
            t("，剪成每段"),
            Seg::Qty(1),
            t("的小段，"),
            t("一共能剪成多少段？"),
        ],
        question_seg: 5,
        quantities: vec![q(total, "M", "米"), q(per, "M", "米")],
        equation: Node::bin(Op::Div, Node::Q(0), Node::Q(1)),
        answer_unit_code: None,
        answer_unit_surface: String::new(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn water_remaining(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let vol = nice(rng, 100, 900, 50);
    let pct = nice(rng, 10, 80, 5);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("水池里有水"),
            Seg::Qty(0),
            t("，用去了其中的"),
            Seg::Qty(1),
            t("，"),
            t("水池里还剩多少"),
            Seg::AnswerUnit,
            t("的水？"),
        ],
        question_seg: 5,
        quantities: vec![q(vol, "L", "升"), q(pct, "PERCENT", "%")],
        equation: Node::bin(Op::Sub, Node::Q(0), Node::bin(Op::Mul, Node::Q(0), Node::Q(1))),
        answer_unit_code: Some("L".into()),
        answer_unit_surface: "升".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn electricity(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let kw = nice(rng, 1, 6, 1);
    let hours = nice(rng, 2, 12, 1);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一台功率为"),
            Seg::Qty(0),
            t("的空调连续运行"),
            Seg::Qty(1),
            t("，"),
            t("一共消耗多少"),
            Seg::AnswerUnit,
            t("的电能？"),
        ],
        question_seg: 5,
        quantities: vec![q(kw, "KiloW", "千瓦"), q(hours, "HR", "小时")],
        equation: Node::bin(Op::Mul, Node::Q(0), Node::Q(1)),
        answer_unit_code: Some("KiloWH".into()),
        answer_unit_surface: "千瓦时".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn density_mass(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let density = nice(rng, 2, 9, 1);
    let vol = nice(rng, 10, 200, 10);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("某种金属的密度是每立方厘米"),
            Seg::Qty(0),
            t("，一块体积为"),
            Seg::Qty(1),
            t("的这种金属，"),
            t("质量是多少"),
            Seg::AnswerUnit,
            t("？"),
        ],
        question_seg: 5,
        quantities: vec![q(density, "GM", "克"), q(vol, "CM3", "立方厘米")],
        equation: Node::bin(Op::Mul, Node::Q(0), Node::Q(1)),
        answer_unit_code: Some("GM".into()),
        answer_unit_surface: "克".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn work_together(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let a = nice(rng, 4, 12, 2);
    let b = a * 2.0;
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一项工程，甲队单独做需要"),
            Seg::Qty(0),
            t("完成，乙队单独做需要"),
            Seg::Qty(1),
            t("完成，"),
            t("两队合作需要多少"),
            Seg::AnswerUnit,
            t("完成？"),
        ],
        question_seg: 5,
        quantities: vec![q(a, "DAY", "天"), q(b, "DAY", "天")],
        equation: Node::bin(
            Op::Div,
            Node::Const(1.0),
            Node::bin(
                Op::Add,
                Node::bin(Op::Div, Node::Const(1.0), Node::Q(0)),
                Node::bin(Op::Div, Node::Const(1.0), Node::Q(1)),
            ),
        ),
        answer_unit_code: Some("DAY".into()),
        answer_unit_surface: "天".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

// ---- Ape210k-style multi-step templates -----------------------------------

fn apples_bags(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let crates = nice(rng, 5, 20, 1);
    let per = nice(rng, 10, 30, 5);
    let bags = nice(rng, 2, 10, 1);
    let sold = (crates * per / 2.0 / bags).floor() * bags;
    MwpProblem {
        id,
        source,
        segs: vec![
            t("商店运来"),
            Seg::Qty(0),
            t("筐苹果，每筐重"),
            Seg::Qty(1),
            t("，卖出"),
            Seg::Qty(2),
            t("后，剩下的苹果平均装成"),
            Seg::Qty(3),
            t("袋，"),
            t("每袋苹果重多少"),
            Seg::AnswerUnit,
            t("？"),
        ],
        question_seg: 9,
        quantities: vec![
            q(crates, "", ""),
            q(per, "KiloGM", "千克"),
            q(sold, "KiloGM", "千克"),
            q(bags, "", ""),
        ],
        equation: Node::bin(
            Op::Div,
            Node::bin(Op::Sub, Node::bin(Op::Mul, Node::Q(0), Node::Q(1)), Node::Q(2)),
            Node::Q(3),
        ),
        answer_unit_code: Some("KiloGM".into()),
        answer_unit_surface: "千克".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn two_stage_travel(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let s1 = nice(rng, 40, 90, 10);
    let t1 = nice(rng, 2, 5, 1);
    let s2 = nice(rng, 60, 110, 10);
    let t2 = nice(rng, 1, 4, 1);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一辆货车先以每小时"),
            Seg::Qty(0),
            t("行驶了"),
            Seg::Qty(1),
            t("，又以每小时"),
            Seg::Qty(2),
            t("行驶了"),
            Seg::Qty(3),
            t("，"),
            t("这辆货车一共行驶了多少"),
            Seg::AnswerUnit,
            t("？"),
        ],
        question_seg: 9,
        quantities: vec![
            q(s1, "KiloM", "千米"),
            q(t1, "HR", "小时"),
            q(s2, "KiloM", "千米"),
            q(t2, "HR", "小时"),
        ],
        equation: Node::bin(
            Op::Add,
            Node::bin(Op::Mul, Node::Q(0), Node::Q(1)),
            Node::bin(Op::Mul, Node::Q(2), Node::Q(3)),
        ),
        answer_unit_code: Some("KiloM".into()),
        answer_unit_surface: "千米".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn mixture_price(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let m1 = nice(rng, 2, 10, 1);
    let c1 = nice(rng, 10, 40, 5);
    let m2 = nice(rng, 2, 10, 1);
    let c2 = nice(rng, 10, 40, 5);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("把"),
            Seg::Qty(0),
            t("每千克含糖"),
            Seg::Qty(1),
            t("的糖水与"),
            Seg::Qty(2),
            t("每千克含糖"),
            Seg::Qty(3),
            t("的糖水混合，"),
            t("混合后平均每千克糖水含糖多少"),
            Seg::AnswerUnit,
            t("？"),
        ],
        question_seg: 9,
        quantities: vec![
            q(m1, "KiloGM", "千克"),
            q(c1, "GM", "克"),
            q(m2, "KiloGM", "千克"),
            q(c2, "GM", "克"),
        ],
        equation: Node::bin(
            Op::Div,
            Node::bin(
                Op::Add,
                Node::bin(Op::Mul, Node::Q(0), Node::Q(1)),
                Node::bin(Op::Mul, Node::Q(2), Node::Q(3)),
            ),
            Node::bin(Op::Add, Node::Q(0), Node::Q(2)),
        ),
        answer_unit_code: Some("GM".into()),
        answer_unit_surface: "克".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn discount_chain(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let base = nice(rng, 200, 900, 50);
    let p1 = nice(rng, 10, 30, 5);
    let p2 = nice(rng, 5, 20, 5);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一批水果重"),
            Seg::Qty(0),
            t("，第一天卖出"),
            Seg::Qty(1),
            t("，第二天卖出余下的"),
            Seg::Qty(2),
            t("，"),
            t("还剩下多少"),
            Seg::AnswerUnit,
            t("的水果？"),
        ],
        question_seg: 7,
        quantities: vec![q(base, "KiloGM", "千克"), q(p1, "PERCENT", "%"), q(p2, "PERCENT", "%")],
        equation: Node::bin(
            Op::Mul,
            Node::bin(Op::Sub, Node::Q(0), Node::bin(Op::Mul, Node::Q(0), Node::Q(1))),
            Node::bin(Op::Sub, Node::Const(1.0), Node::Q(2)),
        ),
        answer_unit_code: Some("KiloGM".into()),
        answer_unit_surface: "千克".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn tank_fill(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let rate = nice(rng, 20, 90, 10);
    let minutes = nice(rng, 5, 30, 5);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一个水箱用每分钟"),
            Seg::Qty(0),
            t("的水管注水，注了"),
            Seg::Qty(1),
            t("，"),
            t("水箱里一共有多少"),
            Seg::AnswerUnit,
            t("的水？"),
        ],
        question_seg: 5,
        quantities: vec![q(rate, "L", "升"), q(minutes, "MIN", "分钟")],
        equation: Node::bin(Op::Mul, Node::Q(0), Node::Q(1)),
        answer_unit_code: Some("L".into()),
        answer_unit_surface: "升".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn average_speed(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let hours = nice(rng, 2, 6, 1);
    let dist = nice(rng, 20, 90, 10) * hours;
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一名骑手"),
            Seg::Qty(1),
            t("内骑行了"),
            Seg::Qty(0),
            t("，"),
            t("他平均每小时骑行多少"),
            Seg::AnswerUnit,
            t("？"),
        ],
        question_seg: 5,
        quantities: vec![q(dist, "KiloM", "千米"), q(hours, "HR", "小时")],
        equation: Node::bin(Op::Div, Node::Q(0), Node::Q(1)),
        answer_unit_code: Some("KiloM".into()),
        answer_unit_surface: "千米".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn unit_mass_price(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let boxes = nice(rng, 4, 12, 1);
    let per = nice(rng, 5, 25, 5);
    let extra = nice(rng, 2, 15, 1);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("食堂买来"),
            Seg::Qty(0),
            t("箱面粉，每箱重"),
            Seg::Qty(1),
            t("，又买来"),
            Seg::Qty(2),
            t("大米，"),
            t("食堂一共买了多少"),
            Seg::AnswerUnit,
            t("的粮食？"),
        ],
        question_seg: 7,
        quantities: vec![q(boxes, "", ""), q(per, "KiloGM", "千克"), q(extra, "KiloGM", "千克")],
        equation: Node::bin(Op::Add, Node::bin(Op::Mul, Node::Q(0), Node::Q(1)), Node::Q(2)),
        answer_unit_code: Some("KiloGM".into()),
        answer_unit_surface: "千克".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn reading_pages(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let per_day = nice(rng, 10, 40, 5);
    let days = nice(rng, 3, 9, 1);
    let total = per_day * days + nice(rng, 20, 80, 10);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一本书共"),
            Seg::Qty(0),
            t("页，小明每天读"),
            Seg::Qty(1),
            t("页，读了"),
            Seg::Qty(2),
            t("，"),
            t("还剩多少页没有读？"),
        ],
        question_seg: 7,
        quantities: vec![q(total, "", ""), q(per_day, "", ""), q(days, "DAY", "天")],
        equation: Node::bin(Op::Sub, Node::Q(0), Node::bin(Op::Mul, Node::Q(1), Node::Q(2))),
        answer_unit_code: None,
        answer_unit_surface: String::new(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn orchard_ratio(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let total = nice(rng, 200, 900, 50);
    let pct = nice(rng, 20, 60, 5);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("果园里共有果树"),
            Seg::Qty(0),
            t("棵，其中苹果树占"),
            Seg::Qty(1),
            t("，"),
            t("苹果树有多少棵？"),
        ],
        question_seg: 5,
        quantities: vec![q(total, "", ""), q(pct, "PERCENT", "%")],
        equation: Node::bin(Op::Mul, Node::Q(0), Node::Q(1)),
        answer_unit_code: None,
        answer_unit_surface: String::new(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

fn irrigation_chain(rng: &mut StdRng, id: u64, source: Source) -> MwpProblem {
    let area = nice(rng, 20, 80, 10);
    let per = nice(rng, 200, 600, 50);
    let hours = nice(rng, 2, 8, 1);
    MwpProblem {
        id,
        source,
        segs: vec![
            t("一台抽水机每小时可以灌溉"),
            Seg::Qty(0),
            t("的农田，用水"),
            Seg::Qty(1),
            t("，工作"),
            Seg::Qty(2),
            t("后，"),
            t("一共用水多少"),
            Seg::AnswerUnit,
            t("？"),
        ],
        question_seg: 7,
        quantities: vec![q(area, "MU-ZH", "亩"), q(per, "L", "升"), q(hours, "HR", "小时")],
        equation: Node::bin(Op::Mul, Node::Q(1), Node::Q(2)),
        answer_unit_code: Some("L".into()),
        answer_unit_surface: "升".into(),
        conversions: vec![],
        answer_conversion: 1.0,
    }
}

const MATH23K_TEMPLATES: &[(Template, u32)] = &[
    (dilution, 2),
    (travel_distance, 3),
    (travel_time, 3),
    (rectangle_area, 3),
    (rectangle_perimeter, 2),
    (remaining_cargo, 2),
    (rope_pieces, 2),
    (water_remaining, 2),
    (electricity, 1),
    (density_mass, 1),
    (work_together, 1),
    (two_stage_travel, 1),
    (tank_fill, 2),
    (average_speed, 2),
    (unit_mass_price, 2),
    (reading_pages, 2),
    (orchard_ratio, 2),
];

const APE210K_TEMPLATES: &[(Template, u32)] = &[
    (dilution, 2),
    (travel_distance, 1),
    (travel_time, 1),
    (rectangle_area, 1),
    (remaining_cargo, 2),
    (water_remaining, 1),
    (electricity, 1),
    (density_mass, 1),
    (work_together, 2),
    (apples_bags, 3),
    (two_stage_travel, 3),
    (mixture_price, 2),
    (discount_chain, 3),
    (tank_fill, 1),
    (average_speed, 1),
    (unit_mass_price, 2),
    (reading_pages, 1),
    (orchard_ratio, 1),
    (irrigation_chain, 2),
];

/// Generates an N-MWP dataset in the given style.
pub fn generate(source: Source, config: &GenConfig) -> Vec<MwpProblem> {
    generate_with(source, config, dim_par::Parallelism::SEQUENTIAL)
}

/// Like [`generate`], fanning problem construction out across `par`.
///
/// Each problem draws from its own RNG stream derived from
/// `(config.seed, id)`, so the dataset is byte-identical for every thread
/// count: `dim_par`'s morsel scheduler decides only which worker builds
/// problem `id` (clamping the width to the host's usable cores), while the
/// index-ordered merge fixes the output position.
pub fn generate_with(
    source: Source,
    config: &GenConfig,
    par: dim_par::Parallelism,
) -> Vec<MwpProblem> {
    degrade::complete(try_generate_with(source, config, par, Policy::CLASSIC))
}

/// The chaos/quarantine site for a generation source. The source is part of
/// the site name so the two datasets get independent fault streams and
/// distinguishable manifest entries.
fn gen_site(source: Source) -> &'static str {
    match source {
        Source::Math23k => "mwp.gen.math23k",
        Source::Ape210k => "mwp.gen.ape210k",
    }
}

/// Degraded-mode [`generate_with`]: each problem is generated in panic
/// isolation; a faulted record is quarantined instead of aborting the batch,
/// subject to the policy's budget. With no faults, slot `i` equals the
/// classic output's element `i` exactly.
pub fn try_generate_with(
    source: Source,
    config: &GenConfig,
    par: dim_par::Parallelism,
    policy: Policy,
) -> Result<Degraded<MwpProblem>, BudgetExceeded> {
    let _span = GEN_SPAN.span();
    GEN_PROBLEMS.add(config.count as u64);
    let templates = match source {
        Source::Math23k => MATH23K_TEMPLATES,
        Source::Ape210k => APE210K_TEMPLATES,
    };
    let total_weight: u32 = templates.iter().map(|(_, w)| w).sum();
    let ids: Vec<u64> = (0..config.count as u64).collect();
    let site = gen_site(source);
    let slots = dim_par::try_par_map_indexed(par, &ids, |i, &id| {
        degrade::inject(policy.plan, site, i)?;
        // Problem `id` draws from its own `(seed, id)` RNG stream.
        let mut rng = StdRng::seed_from_u64(dim_par::seed_for(config.seed, id));
        let mut pick = rng.gen_range(0..total_weight);
        let template = templates
            .iter()
            .find(|(_, w)| {
                if pick < *w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .map(|(t, _)| t)
            // lint:allow(no_panic, pick is drawn from 0..total_weight so the weighted scan always lands on a template)
            .expect("weights cover range");
        Ok(template(&mut rng, id, source))
    });
    degrade::collect_isolated(site, slots, policy.budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::calculate;

    #[test]
    fn generated_problems_are_consistent() {
        for source in [Source::Math23k, Source::Ape210k] {
            for p in generate(source, &GenConfig { count: 100, seed: 9 }) {
                let answer = p.answer();
                assert!(answer.is_finite() && answer > 0.0, "{}", p.text());
                let via_calc = calculate(&p.equation_text()).unwrap();
                assert!(
                    (via_calc - answer).abs() < 1e-6 * answer.abs().max(1.0),
                    "calculator disagrees on {}: {via_calc} vs {answer}",
                    p.equation_text()
                );
            }
        }
    }

    #[test]
    fn ape210k_has_more_operations() {
        let cfg = GenConfig { count: 200, seed: 4 };
        let mean_ops = |src| {
            let ps = generate(src, &cfg);
            ps.iter().map(MwpProblem::op_count).sum::<usize>() as f64 / ps.len() as f64
        };
        assert!(
            mean_ops(Source::Ape210k) > mean_ops(Source::Math23k),
            "Ape210k skews multi-step (Table VI shape)"
        );
    }

    #[test]
    fn n_mwp_units_are_uniform() {
        // The N-MWP property the paper criticizes: few distinct units.
        let ps = generate(Source::Math23k, &GenConfig { count: 225, seed: 5 });
        let mut surfaces: Vec<String> = ps
            .iter()
            .flat_map(|p| p.unit_surfaces().into_iter().map(String::from).collect::<Vec<_>>())
            .collect();
        surfaces.sort();
        surfaces.dedup();
        assert!(surfaces.len() <= 20, "N-MWP should be unit-uniform, got {surfaces:?}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig { count: 20, seed: 77 };
        assert_eq!(generate(Source::Math23k, &cfg), generate(Source::Math23k, &cfg));
    }

    #[test]
    fn parallel_generation_is_thread_count_invariant() {
        let cfg = GenConfig { count: 300, seed: 77 };
        for source in [Source::Math23k, Source::Ape210k] {
            let seq = generate(source, &cfg);
            for threads in [2, 4] {
                let par = generate_with(source, &cfg, dim_par::Parallelism::new(threads));
                assert_eq!(par, seq, "{source:?} threads = {threads}");
            }
        }
    }

    #[test]
    fn texts_are_wellformed_chinese_problems() {
        for p in generate(Source::Ape210k, &GenConfig { count: 50, seed: 8 }) {
            let text = p.text();
            assert!(text.contains("多少"), "question word expected: {text}");
            assert!(text.ends_with('？'), "{text}");
        }
    }
}
