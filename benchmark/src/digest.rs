//! `sim_digest`: a 64-bit FNV-1a digest of a checkpoint document with the
//! fields that legitimately differ between equivalent runs left out.
//!
//! Equivalent runs of one seed may differ in exactly these places:
//!
//! * `world.sim_leaps` — the idle-leap counter bumps each time a
//!   `run_until` deadline lands inside a leap, so a run stepped slice by
//!   slice counts more leaps than a one-shot run;
//! * `world.telemetry` and `config.telemetry` — the traced run records
//!   telemetry and the untraced run does not (this also covers the
//!   `sim.time.*`, `sim.queue.*` and `sim.arena.*` gauges, which depend on
//!   where a run was paused).
//!
//! The scanner is a single linear pass that never builds a tree, so a
//! 20 MB checkpoint digests in milliseconds.

/// Object-key paths left out of the digest.
pub const STRIPPED: &[&[&str]] = &[
    &["world", "sim_leaps"],
    &["world", "telemetry"],
    &["config", "telemetry"],
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

struct Scanner<'a> {
    b: &'a [u8],
    i: usize,
    h: u64,
    path: Vec<&'a str>,
    strip: &'a [&'a [&'a str]],
}

impl<'a> Scanner<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Result<u8, String> {
        self.b
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of document".to_string())
    }

    /// Byte range of the string starting at the cursor (quotes excluded).
    fn string(&mut self) -> Result<(usize, usize), String> {
        self.i += 1;
        let start = self.i;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'"' => {
                    self.i += 1;
                    return Ok((start, self.i - 1));
                }
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn emit(&mut self, bytes: &[u8], hash: bool) {
        if hash {
            self.h = fnv(self.h, bytes);
        }
    }

    fn value(&mut self, hash: bool) -> Result<(), String> {
        self.ws();
        match self.peek()? {
            b'{' => {
                self.i += 1;
                self.emit(b"{", hash);
                loop {
                    self.ws();
                    if self.peek()? == b'}' {
                        self.i += 1;
                        break;
                    }
                    if self.peek()? != b'"' {
                        return Err(format!("expected a key at byte {}", self.i));
                    }
                    let (s, e) = self.string()?;
                    let key = std::str::from_utf8(&self.b[s..e]).map_err(|e| e.to_string())?;
                    self.path.push(key);
                    let keep = hash && !self.strip.contains(&self.path.as_slice());
                    self.emit(&self.b[s - 1..=e], keep);
                    self.ws();
                    if self.peek()? != b':' {
                        return Err(format!("expected ':' at byte {}", self.i));
                    }
                    self.i += 1;
                    self.emit(b":", keep);
                    self.value(keep)?;
                    self.path.pop();
                    self.ws();
                    if self.peek()? == b',' {
                        self.i += 1;
                        self.emit(b",", keep);
                    }
                }
                self.emit(b"}", hash);
            }
            b'[' => {
                self.i += 1;
                self.emit(b"[", hash);
                loop {
                    self.ws();
                    if self.peek()? == b']' {
                        self.i += 1;
                        break;
                    }
                    self.value(hash)?;
                    self.ws();
                    if self.peek()? == b',' {
                        self.i += 1;
                        self.emit(b",", hash);
                    }
                }
                self.emit(b"]", hash);
            }
            b'"' => {
                let (s, e) = self.string()?;
                self.emit(&self.b[s - 1..=e], hash);
            }
            _ => {
                let s = self.i;
                while self.i < self.b.len() && !b",]} \t\r\n".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                if self.i == s {
                    return Err(format!("unexpected byte at {s}"));
                }
                self.emit(&self.b[s..self.i], hash);
            }
        }
        Ok(())
    }
}

/// Digest of `doc` with every key path in `strip` (and its value) left
/// out. Whitespace is ignored; everything else is hashed in order.
fn digest_stripped(doc: &str, strip: &[&[&str]]) -> Result<u64, String> {
    let mut s = Scanner {
        b: doc.as_bytes(),
        i: 0,
        h: FNV_OFFSET,
        path: Vec::new(),
        strip,
    };
    s.value(true)?;
    s.ws();
    if s.i != s.b.len() {
        return Err(format!("trailing data at byte {}", s.i));
    }
    Ok(s.h)
}

/// The `sim_digest` of a checkpoint: [`digest_stripped`] with [`STRIPPED`].
pub fn sim_digest(checkpoint: &str) -> Result<u64, String> {
    digest_stripped(checkpoint, STRIPPED)
}

/// Fold several digests into one, order-sensitively.
pub fn combine(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv(h, &d.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripped_paths_do_not_count() {
        let a = r#"{"world": {"x": 1, "sim_leaps": 92, "y": [1, "a\"b"]}}"#;
        let b = r#"{"world": {"x": 1, "sim_leaps": 184, "y": [1, "a\"b"]}}"#;
        assert_eq!(sim_digest(a).unwrap(), sim_digest(b).unwrap());
        let c = r#"{"world": {"x": 2, "sim_leaps": 92, "y": [1, "a\"b"]}}"#;
        assert_ne!(sim_digest(a).unwrap(), sim_digest(c).unwrap());
    }

    #[test]
    fn only_the_exact_path_is_stripped() {
        let a = r#"{"sim_leaps": 1, "config": {"telemetry": true, "nodes": 4}}"#;
        let b = r#"{"sim_leaps": 2, "config": {"telemetry": false, "nodes": 4}}"#;
        assert_ne!(sim_digest(a).unwrap(), sim_digest(b).unwrap());
        let c = r#"{"sim_leaps": 1, "config": {"telemetry": false, "nodes": 4}}"#;
        assert_eq!(sim_digest(a).unwrap(), sim_digest(c).unwrap());
    }

    #[test]
    fn whitespace_is_ignored_and_garbage_rejected() {
        assert_eq!(
            sim_digest("{\"a\": [1, 2]}").unwrap(),
            sim_digest("{ \"a\" :[1,2] }").unwrap()
        );
        assert!(sim_digest("{\"a\": ").is_err());
        assert!(sim_digest("[1] x").is_err());
    }
}
