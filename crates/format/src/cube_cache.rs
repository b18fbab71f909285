//! OCB — the cached quality-cube format (`.ocube`).
//!
//! The second durable artifact of the session pipeline (after `.omm`): the
//! per-node prefix sums of a [`CubeCore`], i.e. everything either quality
//! cube (on-demand or dense) needs to answer `gain`/`loss` queries. A warm
//! analysis session deserializes an `.ocube` and skips trace reading,
//! microscopic description *and* prefix-sum construction — only the DP
//! (with the dense matrices it builds on first use) remains.
//!
//! Values are stored as raw IEEE-754 bit patterns, so a reloaded cube
//! answers every query **bit-identically** to the cube it was saved from
//! (both cubes evaluate through the same `CubeCore::eval_cell`).
//!
//! Layout (all integers little-endian, strings `u32`-length-prefixed UTF-8):
//!
//! ```text
//! magic   "OCB1"
//! u64     artifact key (the session's content-addressed hash)
//! grid    f64 start, f64 end, u32 n_slices
//! u32 n_nodes  { u32 parent+1 (0 = root), str kind, str name }*  (pre-order)
//! u32 n_states { str name }*
//! f64 prefix_duration[node][state][slice+1]   (node-major, |X|·(|T|+1) each)
//! f64 prefix_info    [node][state][slice+1]   (same layout)
//! ```

use crate::binary::put_str;
use crate::error::{FormatError, Result};
use crate::micro_cache::{read_hierarchy, write_hierarchy};
use bytes::BufMut;
use ocelotl_core::{CubeCore, QualityCube};
use ocelotl_trace::{StateRegistry, TimeGrid};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"OCB1";

/// Serialize a cube core under its artifact key.
pub fn write_cube<W: Write>(key: u64, core: &CubeCore, mut w: W) -> Result<()> {
    let mut head = Vec::with_capacity(4096);
    head.put_slice(MAGIC);
    head.put_u64_le(key);
    head.put_f64_le(core.grid().start());
    head.put_f64_le(core.grid().end());
    head.put_u32_le(core.n_slices() as u32);
    write_hierarchy(&mut head, core.hierarchy());
    head.put_u32_le(core.n_states() as u32);
    for (_, name) in core.states().iter() {
        put_str(&mut head, name);
    }
    w.write_all(&head)?;

    let mut row_buf = Vec::new();
    let mut put_row = |row: &[f64], w: &mut W| -> Result<()> {
        row_buf.clear();
        row_buf.reserve(row.len() * 8);
        for &v in row {
            row_buf.put_f64_le(v);
        }
        w.write_all(&row_buf)?;
        Ok(())
    };
    for node in core.hierarchy().node_ids() {
        put_row(core.prefix_duration_row(node), &mut w)?;
    }
    for node in core.hierarchy().node_ids() {
        put_row(core.prefix_info_row(node), &mut w)?;
    }
    Ok(())
}

/// Deserialize a cube core; returns the stored artifact key alongside it.
pub fn read_cube<R: Read>(mut r: R) -> Result<(u64, CubeCore)> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(FormatError::UnsupportedVersion(
            String::from_utf8_lossy(&magic).into_owned(),
        ));
    }
    let mut fixed = [0u8; 28];
    r.read_exact(&mut fixed)?;
    let key = u64::from_le_bytes(fixed[0..8].try_into().unwrap());
    let start = f64::from_le_bytes(fixed[8..16].try_into().unwrap());
    let end = f64::from_le_bytes(fixed[16..24].try_into().unwrap());
    let n_slices = u32::from_le_bytes(fixed[24..28].try_into().unwrap()) as usize;
    if !(start.is_finite() && end.is_finite()) || end <= start || n_slices == 0 {
        return Err(FormatError::parse("invalid time grid", None));
    }
    // Sanity ceiling so a corrupt header degrades to a parse error (a
    // cache miss for the store) instead of a giant buffer allocation.
    if n_slices > 1 << 22 {
        return Err(FormatError::parse("unreasonable slice count", None));
    }
    let grid = TimeGrid::new(start, end, n_slices);

    let hierarchy = read_hierarchy(&mut r)?;

    let mut count = [0u8; 4];
    r.read_exact(&mut count)?;
    let n_states = u32::from_le_bytes(count);
    if n_states == 0 || n_states > 1 << 16 {
        return Err(FormatError::parse("invalid state count", None));
    }
    let mut states = StateRegistry::new();
    for _ in 0..n_states {
        states.intern(&crate::binary::read_len_str(&mut r)?);
    }
    if states.len() != n_states as usize {
        return Err(FormatError::parse("duplicate state names", None));
    }

    let n_nodes = hierarchy.len();
    let row_len = states.len() * (n_slices + 1);
    let mut read_rows = |finite_only: bool| -> Result<Vec<Vec<f64>>> {
        let mut rows = Vec::with_capacity(n_nodes);
        let mut buf = vec![0u8; row_len * 8];
        for _ in 0..n_nodes {
            r.read_exact(&mut buf)?;
            let mut row = Vec::with_capacity(row_len);
            for chunk in buf.chunks_exact(8) {
                let v = f64::from_le_bytes(chunk.try_into().unwrap());
                if finite_only && !v.is_finite() {
                    return Err(FormatError::parse("non-finite prefix-sum cell", None));
                }
                row.push(v);
            }
            rows.push(row);
        }
        Ok(rows)
    };
    let prefix_duration = read_rows(true)?;
    let prefix_info = read_rows(true)?;

    let core = CubeCore::from_raw(hierarchy, states, grid, prefix_duration, prefix_info)
        .map_err(|e| FormatError::parse(format!("invalid cube core: {e}"), None))?;
    Ok((key, core))
}

/// Write a cube core to an `.ocube` file.
pub fn save_cube(key: u64, core: &CubeCore, path: &Path) -> Result<()> {
    let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
    write_cube(key, core, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Read a cube core from an `.ocube` file.
pub fn load_cube(path: &Path) -> Result<(u64, CubeCore)> {
    let r = BufReader::with_capacity(1 << 20, File::open(path)?);
    read_cube(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelotl_core::DenseCube;
    use ocelotl_trace::synthetic::{fig3_model, random_model};

    fn roundtrip(key: u64, core: &CubeCore) -> (u64, CubeCore) {
        let mut buf = Vec::new();
        write_cube(key, core, &mut buf).unwrap();
        read_cube(buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let m = random_model(&[3, 2, 2], 11, 3, 7);
        let core = CubeCore::build(&m);
        let (key, back) = roundtrip(0xfeed, &core);
        assert_eq!(key, 0xfeed);
        assert_eq!(back.grid(), core.grid());
        for node in core.hierarchy().node_ids() {
            assert_eq!(
                core.prefix_duration_row(node),
                back.prefix_duration_row(node)
            );
            assert_eq!(core.prefix_info_row(node), back.prefix_info_row(node));
            for i in 0..core.n_slices() {
                for j in i..core.n_slices() {
                    assert_eq!(core.eval_cell(node, i, j), back.eval_cell(node, i, j));
                }
            }
        }
    }

    #[test]
    fn reloaded_core_feeds_both_backends_identically() {
        let m = fig3_model();
        let core = CubeCore::build(&m);
        let (_, back) = roundtrip(1, &core);
        let dense = DenseCube::from_core(core.clone());
        for node in m.hierarchy().node_ids() {
            for i in 0..m.n_slices() {
                for j in i..m.n_slices() {
                    assert_eq!(dense.gain(node, i, j), back.gain(node, i, j));
                    assert_eq!(dense.loss(node, i, j), back.loss(node, i, j));
                }
            }
        }
    }

    #[test]
    fn truncations_never_panic() {
        let m = random_model(&[2, 2], 5, 2, 4);
        let core = CubeCore::build(&m);
        let mut buf = Vec::new();
        write_cube(9, &core, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(read_cube(&buf[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(read_cube(&b"OMM1aaaaaaaa"[..]).is_err());
        assert!(read_cube(&b""[..]).is_err());
    }

    #[test]
    fn corrupt_slice_count_is_a_parse_error_not_an_allocation() {
        let m = random_model(&[2], 4, 1, 6);
        let core = CubeCore::build(&m);
        let mut buf = Vec::new();
        write_cube(0, &core, &mut buf).unwrap();
        // n_slices sits after magic(4) + key(8) + start(8) + end(8).
        buf[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_cube(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("slice count"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let m = fig3_model();
        let core = CubeCore::build(&m);
        let path = std::env::temp_dir().join(format!("ocube-test-{}.ocube", std::process::id()));
        save_cube(3, &core, &path).unwrap();
        let (key, back) = load_cube(&path).unwrap();
        assert_eq!(key, 3);
        assert_eq!(back.n_slices(), core.n_slices());
        std::fs::remove_file(&path).ok();
    }
}
