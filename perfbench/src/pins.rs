//! Oracle values pinned per seed (`pins.txt`, compiled in), and the FNV-1a
//! digest they are written in.

use nenya::interp::MemImage;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PINS: &str = include_str!("../pins.txt");

pub fn fnv(state: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *state = (*state ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Folds a memory image into the digest (`X` words distinct from 0).
pub fn digest_mem(state: &mut u64, image: Option<&MemImage>) {
    let Some(image) = image else {
        fnv(state, b"missing");
        return;
    };
    for word in image {
        match word {
            Some(v) => fnv(state, &v.to_le_bytes()),
            None => fnv(state, b"X"),
        }
    }
}

fn lookup(workload: &str, seed: u64) -> Option<&'static str> {
    PINS.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let rest = line.strip_prefix(workload)?.strip_prefix(' ')?;
            let (s, value) = rest.split_once(' ')?;
            (s.parse::<u64>().ok()? == seed).then_some(value.trim())
        })
}

/// The pinned `regress` digest for `seed`.
pub fn regress(seed: u64) -> Option<&'static str> {
    lookup("regress", seed)
}

/// The pinned `faults-batch` tally of campaign 0 for `seed`, as
/// `detected silent hung crashed skipped`.
pub fn faults(seed: u64) -> Option<&'static str> {
    lookup("faults-batch", seed)
}
