//! The code kinds the placement tests sweep: every scheme the registry
//! evaluates.

use drc_codes::CodeKind;

pub const EVERY_CODE: [CodeKind; 8] = [
    CodeKind::TWO_REP,
    CodeKind::THREE_REP,
    CodeKind::Pentagon,
    CodeKind::Heptagon,
    CodeKind::HeptagonLocal,
    CodeKind::RAID_M_10_9,
    CodeKind::RAID_M_12_11,
    CodeKind::ReedSolomon {
        data: 10,
        parity: 4,
    },
];
