//! Compact binary serialization of traces.
//!
//! Traces for realistic workload sizes run to millions of entries;
//! regenerating them for every experiment is wasteful. This module
//! provides a simple, versioned binary format so the harness can cache
//! traces on disk between experiments.
//!
//! Two containers share the `LKTR` magic and the per-entry encoding:
//!
//! * **version 1** ([`write_trace`]/[`read_trace`]) — a bare trace:
//!   magic/version header, an entry count, then one tagged record per
//!   entry with little-endian fields;
//! * **version 2** ([`write_archive`]/[`read_archive`]) — a complete
//!   generated run ([`TraceArchive`]): the cache key it was produced
//!   under, the program, the multiprocessor statistics and *all*
//!   per-processor traces, followed by an FNV-1a checksum footer so a
//!   damaged cache file is detected rather than trusted;
//! * **version 3** ([`ArchiveWriter`]/[`ArchiveInfo`]/[`ChunkReader`])
//!   — the same run in *chunked* form: a checksummed header, a stream
//!   of per-chunk-checksummed [`TraceChunk`](crate::stream::TraceChunk)
//!   records (interleavable across processors, so the writer can run
//!   concurrently with trace generation), and a checksummed trailer
//!   found via a trailing length word. Readers stream one processor's
//!   chunks straight off disk without decoding the whole archive.

use crate::breakdown::Breakdown;
use crate::record::{MemAccess, SyncAccess, Trace, TraceEntry, TraceOp};
use crate::stream::{ChunkMeta, SliceSource, StreamError, TraceChunk, TraceSink, TraceSource};
use lookahead_isa::{
    AluOp, BranchCond, FpCmpOp, FpReg, FpuOp, Instruction, IntReg, Program, SyncKind,
};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"LKTR";
const VERSION: u8 = 1;

/// Version byte of the whole-archive (v2) container, still readable
/// and writable for compatibility tests.
pub const ARCHIVE_V2: u8 = 2;

/// Version byte of the current [`TraceArchive`] container (the chunked
/// v3 layout). Part of the cache fingerprint: bump it whenever the
/// encoding changes and every stale cache entry is regenerated instead
/// of misread.
pub const ARCHIVE_VERSION: u8 = 3;

const TAG_COMPUTE: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_BRANCH: u8 = 3;
const TAG_JUMP: u8 = 4;
const TAG_SYNC: u8 = 5;

/// Errors produced when decoding a trace stream.
#[derive(Debug)]
pub enum DecodeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Stream did not start with the trace magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown record tag.
    BadTag(u8),
    /// Unknown synchronization kind code.
    BadSyncKind(u8),
    /// A memory access with latency zero (the models require >= 1).
    BadLatency,
    /// An out-of-range code for the named field (archive sections:
    /// instruction tags, opcode codes, register indices).
    BadCode {
        /// What was being decoded ("instruction tag", "register", ...).
        what: &'static str,
        /// The offending value.
        code: u64,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// The archive checksum footer does not match the decoded payload
    /// — the file was truncated, bit-flipped or otherwise damaged.
    BadChecksum {
        /// Checksum stored in the footer.
        stored: u64,
        /// Checksum computed over the payload actually read.
        computed: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            DecodeError::BadMagic => write!(f, "not a lookahead trace (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown trace record tag {t}"),
            DecodeError::BadSyncKind(k) => write!(f, "unknown sync kind code {k}"),
            DecodeError::BadLatency => {
                write!(f, "memory access with zero latency (minimum is 1 cycle)")
            }
            DecodeError::BadCode { what, code } => {
                write!(f, "invalid {what} code {code}")
            }
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::BadChecksum { stored, computed } => write!(
                f,
                "archive checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — \
                 the file is damaged"
            ),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> DecodeError {
        DecodeError::Io(e)
    }
}

fn sync_kind_code(kind: SyncKind) -> u8 {
    match kind {
        SyncKind::Lock => 0,
        SyncKind::Unlock => 1,
        SyncKind::Barrier => 2,
        SyncKind::WaitEvent => 3,
        SyncKind::SetEvent => 4,
    }
}

fn sync_kind_from_code(code: u8) -> Result<SyncKind, DecodeError> {
    Ok(match code {
        0 => SyncKind::Lock,
        1 => SyncKind::Unlock,
        2 => SyncKind::Barrier,
        3 => SyncKind::WaitEvent,
        4 => SyncKind::SetEvent,
        other => return Err(DecodeError::BadSyncKind(other)),
    })
}

/// Writes `trace` to `w` in the Lookahead binary trace format.
///
/// The writer is taken by value per the usual Rust convention; pass
/// `&mut writer` to keep using it afterwards.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_trace<W: Write>(mut w: W, trace: &Trace) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    write_entries(&mut w, trace)
}

/// Writes the body shared by both container versions: an entry count
/// followed by the tagged records.
fn write_entries<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for e in trace.iter() {
        write_entry(w, e)?;
    }
    Ok(())
}

fn write_entry<W: Write>(w: &mut W, e: &TraceEntry) -> io::Result<()> {
    w.write_all(&e.pc.to_le_bytes())?;
    match e.op {
        TraceOp::Compute => w.write_all(&[TAG_COMPUTE])?,
        TraceOp::Load(m) | TraceOp::Store(m) => {
            let tag = if matches!(e.op, TraceOp::Load(_)) {
                TAG_LOAD
            } else {
                TAG_STORE
            };
            w.write_all(&[tag, m.miss as u8])?;
            w.write_all(&m.addr.to_le_bytes())?;
            w.write_all(&m.latency.to_le_bytes())?;
        }
        TraceOp::Branch { taken, target } => {
            w.write_all(&[TAG_BRANCH, taken as u8])?;
            w.write_all(&target.to_le_bytes())?;
        }
        TraceOp::Jump { target } => {
            w.write_all(&[TAG_JUMP])?;
            w.write_all(&target.to_le_bytes())?;
        }
        TraceOp::Sync(s) => {
            w.write_all(&[TAG_SYNC, sync_kind_code(s.kind)])?;
            w.write_all(&s.addr.to_le_bytes())?;
            w.write_all(&s.wait.to_le_bytes())?;
            w.write_all(&s.access.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_exact<R: Read, const N: usize>(r: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads a trace previously written by [`write_trace`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input or I/O failure.
pub fn read_trace<R: Read>(mut r: R) -> Result<Trace, DecodeError> {
    let magic: [u8; 4] = read_exact(&mut r)?;
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let [version] = read_exact::<_, 1>(&mut r)?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    read_entries(&mut r)
}

fn read_entries<R: Read>(r: &mut R) -> Result<Trace, DecodeError> {
    let count = u64::from_le_bytes(read_exact(r)?);
    let mut entries = Vec::with_capacity(count.min(1 << 24) as usize);
    for _ in 0..count {
        entries.push(read_entry(r)?);
    }
    Ok(Trace::from_entries(entries))
}

fn read_entry<R: Read>(r: &mut R) -> Result<TraceEntry, DecodeError> {
    let pc = u32::from_le_bytes(read_exact(r)?);
    let [tag] = read_exact::<_, 1>(r)?;
    let op = match tag {
        TAG_COMPUTE => TraceOp::Compute,
        TAG_LOAD | TAG_STORE => {
            let [miss] = read_exact::<_, 1>(r)?;
            let addr = u64::from_le_bytes(read_exact(r)?);
            let latency = u32::from_le_bytes(read_exact(r)?);
            if latency == 0 {
                return Err(DecodeError::BadLatency);
            }
            let m = MemAccess {
                addr,
                miss: miss != 0,
                latency,
            };
            if tag == TAG_LOAD {
                TraceOp::Load(m)
            } else {
                TraceOp::Store(m)
            }
        }
        TAG_BRANCH => {
            let [taken] = read_exact::<_, 1>(r)?;
            let target = u32::from_le_bytes(read_exact(r)?);
            TraceOp::Branch {
                taken: taken != 0,
                target,
            }
        }
        TAG_JUMP => {
            let target = u32::from_le_bytes(read_exact(r)?);
            TraceOp::Jump { target }
        }
        TAG_SYNC => {
            let [kind] = read_exact::<_, 1>(r)?;
            let addr = u64::from_le_bytes(read_exact(r)?);
            let wait = u32::from_le_bytes(read_exact(r)?);
            let access = u32::from_le_bytes(read_exact(r)?);
            if access == 0 {
                return Err(DecodeError::BadLatency);
            }
            TraceOp::Sync(SyncAccess {
                kind: sync_kind_from_code(kind)?,
                addr,
                wait,
                access,
            })
        }
        other => return Err(DecodeError::BadTag(other)),
    };
    Ok(TraceEntry { pc, op })
}

// ---------------------------------------------------------------------
// Version-2 archives: a complete generated run with a checksum footer.
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes` — the workspace's content fingerprint
/// (used for both the archive footer and the cache-file names; no
/// external hashing crate required).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Writer adapter that folds everything written into an FNV-1a hash.
struct HashingWriter<W: Write> {
    inner: W,
    hash: u64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> HashingWriter<W> {
        HashingWriter {
            inner,
            hash: FNV_OFFSET,
        }
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        for &b in &buf[..n] {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reader adapter that folds everything read into an FNV-1a hash.
struct HashingReader<R: Read> {
    inner: R,
    hash: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> HashingReader<R> {
        HashingReader {
            inner,
            hash: FNV_OFFSET,
        }
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        for &b in &buf[..n] {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        Ok(n)
    }
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

fn read_str<R: Read>(r: &mut R) -> Result<String, DecodeError> {
    let len = u32::from_le_bytes(read_exact(r)?) as usize;
    let mut buf = vec![0u8; len.min(1 << 24)];
    if len > buf.len() {
        // A length this large can only come from corruption; don't
        // try to allocate it.
        return Err(DecodeError::BadCode {
            what: "string length",
            code: len as u64,
        });
    }
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| DecodeError::BadUtf8)
}

// Instruction tags of the archive program section.
const ITAG_ALU: u8 = 0;
const ITAG_ALU_IMM: u8 = 1;
const ITAG_LOAD_IMM: u8 = 2;
const ITAG_LOAD_IMM_F: u8 = 3;
const ITAG_FPU: u8 = 4;
const ITAG_FP_CMP: u8 = 5;
const ITAG_INT_TO_FP: u8 = 6;
const ITAG_FP_TO_INT: u8 = 7;
const ITAG_LOAD: u8 = 8;
const ITAG_STORE: u8 = 9;
const ITAG_LOAD_F: u8 = 10;
const ITAG_STORE_F: u8 = 11;
const ITAG_BRANCH: u8 = 12;
const ITAG_JUMP: u8 = 13;
const ITAG_JUMP_AND_LINK: u8 = 14;
const ITAG_JUMP_REG: u8 = 15;
const ITAG_SYNC: u8 = 16;
const ITAG_NOP: u8 = 17;
const ITAG_HALT: u8 = 18;

fn alu_op_code(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::Rem => 4,
        AluOp::And => 5,
        AluOp::Or => 6,
        AluOp::Xor => 7,
        AluOp::Sll => 8,
        AluOp::Srl => 9,
        AluOp::Sra => 10,
        AluOp::Slt => 11,
        AluOp::Sltu => 12,
    }
}

fn alu_op_from_code(code: u8) -> Result<AluOp, DecodeError> {
    Ok(match code {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Div,
        4 => AluOp::Rem,
        5 => AluOp::And,
        6 => AluOp::Or,
        7 => AluOp::Xor,
        8 => AluOp::Sll,
        9 => AluOp::Srl,
        10 => AluOp::Sra,
        11 => AluOp::Slt,
        12 => AluOp::Sltu,
        other => {
            return Err(DecodeError::BadCode {
                what: "ALU op",
                code: other as u64,
            })
        }
    })
}

fn fpu_op_code(op: FpuOp) -> u8 {
    match op {
        FpuOp::Add => 0,
        FpuOp::Sub => 1,
        FpuOp::Mul => 2,
        FpuOp::Div => 3,
        FpuOp::Neg => 4,
        FpuOp::Abs => 5,
        FpuOp::Max => 6,
        FpuOp::Min => 7,
        FpuOp::Sqrt => 8,
    }
}

fn fpu_op_from_code(code: u8) -> Result<FpuOp, DecodeError> {
    Ok(match code {
        0 => FpuOp::Add,
        1 => FpuOp::Sub,
        2 => FpuOp::Mul,
        3 => FpuOp::Div,
        4 => FpuOp::Neg,
        5 => FpuOp::Abs,
        6 => FpuOp::Max,
        7 => FpuOp::Min,
        8 => FpuOp::Sqrt,
        other => {
            return Err(DecodeError::BadCode {
                what: "FPU op",
                code: other as u64,
            })
        }
    })
}

fn fp_cmp_code(op: FpCmpOp) -> u8 {
    match op {
        FpCmpOp::Eq => 0,
        FpCmpOp::Lt => 1,
        FpCmpOp::Le => 2,
    }
}

fn fp_cmp_from_code(code: u8) -> Result<FpCmpOp, DecodeError> {
    Ok(match code {
        0 => FpCmpOp::Eq,
        1 => FpCmpOp::Lt,
        2 => FpCmpOp::Le,
        other => {
            return Err(DecodeError::BadCode {
                what: "FP compare op",
                code: other as u64,
            })
        }
    })
}

fn branch_cond_code(c: BranchCond) -> u8 {
    match c {
        BranchCond::Eq => 0,
        BranchCond::Ne => 1,
        BranchCond::Lt => 2,
        BranchCond::Ge => 3,
        BranchCond::Le => 4,
        BranchCond::Gt => 5,
    }
}

fn branch_cond_from_code(code: u8) -> Result<BranchCond, DecodeError> {
    Ok(match code {
        0 => BranchCond::Eq,
        1 => BranchCond::Ne,
        2 => BranchCond::Lt,
        3 => BranchCond::Ge,
        4 => BranchCond::Le,
        5 => BranchCond::Gt,
        other => {
            return Err(DecodeError::BadCode {
                what: "branch condition",
                code: other as u64,
            })
        }
    })
}

fn int_reg_from_code(code: u8) -> Result<IntReg, DecodeError> {
    IntReg::new(code as usize).map_err(|_| DecodeError::BadCode {
        what: "integer register",
        code: code as u64,
    })
}

fn fp_reg_from_code(code: u8) -> Result<FpReg, DecodeError> {
    FpReg::new(code as usize).map_err(|_| DecodeError::BadCode {
        what: "fp register",
        code: code as u64,
    })
}

fn write_instruction<W: Write>(w: &mut W, i: &Instruction) -> io::Result<()> {
    let ireg = |r: IntReg| r.index() as u8;
    let freg = |r: FpReg| r.index() as u8;
    match *i {
        Instruction::Alu { op, rd, rs1, rs2 } => {
            w.write_all(&[ITAG_ALU, alu_op_code(op), ireg(rd), ireg(rs1), ireg(rs2)])
        }
        Instruction::AluImm { op, rd, rs1, imm } => {
            w.write_all(&[ITAG_ALU_IMM, alu_op_code(op), ireg(rd), ireg(rs1)])?;
            w.write_all(&imm.to_le_bytes())
        }
        Instruction::LoadImm { rd, imm } => {
            w.write_all(&[ITAG_LOAD_IMM, ireg(rd)])?;
            w.write_all(&imm.to_le_bytes())
        }
        Instruction::LoadImmF { fd, value } => {
            w.write_all(&[ITAG_LOAD_IMM_F, freg(fd)])?;
            w.write_all(&value.to_bits().to_le_bytes())
        }
        Instruction::Fpu { op, fd, fs1, fs2 } => {
            w.write_all(&[ITAG_FPU, fpu_op_code(op), freg(fd), freg(fs1), freg(fs2)])
        }
        Instruction::FpCmp { op, rd, fs1, fs2 } => {
            w.write_all(&[ITAG_FP_CMP, fp_cmp_code(op), ireg(rd), freg(fs1), freg(fs2)])
        }
        Instruction::IntToFp { fd, rs } => w.write_all(&[ITAG_INT_TO_FP, freg(fd), ireg(rs)]),
        Instruction::FpToInt { rd, fs } => w.write_all(&[ITAG_FP_TO_INT, ireg(rd), freg(fs)]),
        Instruction::Load { rd, base, offset } => {
            w.write_all(&[ITAG_LOAD, ireg(rd), ireg(base)])?;
            w.write_all(&offset.to_le_bytes())
        }
        Instruction::Store { rs, base, offset } => {
            w.write_all(&[ITAG_STORE, ireg(rs), ireg(base)])?;
            w.write_all(&offset.to_le_bytes())
        }
        Instruction::LoadF { fd, base, offset } => {
            w.write_all(&[ITAG_LOAD_F, freg(fd), ireg(base)])?;
            w.write_all(&offset.to_le_bytes())
        }
        Instruction::StoreF { fs, base, offset } => {
            w.write_all(&[ITAG_STORE_F, freg(fs), ireg(base)])?;
            w.write_all(&offset.to_le_bytes())
        }
        Instruction::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            w.write_all(&[ITAG_BRANCH, branch_cond_code(cond), ireg(rs1), ireg(rs2)])?;
            w.write_all(&(target as u32).to_le_bytes())
        }
        Instruction::Jump { target } => {
            w.write_all(&[ITAG_JUMP])?;
            w.write_all(&(target as u32).to_le_bytes())
        }
        Instruction::JumpAndLink { rd, target } => {
            w.write_all(&[ITAG_JUMP_AND_LINK, ireg(rd)])?;
            w.write_all(&(target as u32).to_le_bytes())
        }
        Instruction::JumpReg { rs } => w.write_all(&[ITAG_JUMP_REG, ireg(rs)]),
        Instruction::Sync { kind, base, offset } => {
            w.write_all(&[ITAG_SYNC, sync_kind_code(kind), ireg(base)])?;
            w.write_all(&offset.to_le_bytes())
        }
        Instruction::Nop => w.write_all(&[ITAG_NOP]),
        Instruction::Halt => w.write_all(&[ITAG_HALT]),
    }
}

fn read_instruction<R: Read>(r: &mut R) -> Result<Instruction, DecodeError> {
    let [tag] = read_exact::<_, 1>(r)?;
    let i64_field =
        |r: &mut R| -> Result<i64, DecodeError> { Ok(i64::from_le_bytes(read_exact(r)?)) };
    let target = |r: &mut R| -> Result<usize, DecodeError> {
        Ok(u32::from_le_bytes(read_exact(r)?) as usize)
    };
    Ok(match tag {
        ITAG_ALU => {
            let [op, rd, rs1, rs2] = read_exact(r)?;
            Instruction::Alu {
                op: alu_op_from_code(op)?,
                rd: int_reg_from_code(rd)?,
                rs1: int_reg_from_code(rs1)?,
                rs2: int_reg_from_code(rs2)?,
            }
        }
        ITAG_ALU_IMM => {
            let [op, rd, rs1] = read_exact(r)?;
            Instruction::AluImm {
                op: alu_op_from_code(op)?,
                rd: int_reg_from_code(rd)?,
                rs1: int_reg_from_code(rs1)?,
                imm: i64_field(r)?,
            }
        }
        ITAG_LOAD_IMM => {
            let [rd] = read_exact(r)?;
            Instruction::LoadImm {
                rd: int_reg_from_code(rd)?,
                imm: i64_field(r)?,
            }
        }
        ITAG_LOAD_IMM_F => {
            let [fd] = read_exact(r)?;
            Instruction::LoadImmF {
                fd: fp_reg_from_code(fd)?,
                value: f64::from_bits(u64::from_le_bytes(read_exact(r)?)),
            }
        }
        ITAG_FPU => {
            let [op, fd, fs1, fs2] = read_exact(r)?;
            Instruction::Fpu {
                op: fpu_op_from_code(op)?,
                fd: fp_reg_from_code(fd)?,
                fs1: fp_reg_from_code(fs1)?,
                fs2: fp_reg_from_code(fs2)?,
            }
        }
        ITAG_FP_CMP => {
            let [op, rd, fs1, fs2] = read_exact(r)?;
            Instruction::FpCmp {
                op: fp_cmp_from_code(op)?,
                rd: int_reg_from_code(rd)?,
                fs1: fp_reg_from_code(fs1)?,
                fs2: fp_reg_from_code(fs2)?,
            }
        }
        ITAG_INT_TO_FP => {
            let [fd, rs] = read_exact(r)?;
            Instruction::IntToFp {
                fd: fp_reg_from_code(fd)?,
                rs: int_reg_from_code(rs)?,
            }
        }
        ITAG_FP_TO_INT => {
            let [rd, fs] = read_exact(r)?;
            Instruction::FpToInt {
                rd: int_reg_from_code(rd)?,
                fs: fp_reg_from_code(fs)?,
            }
        }
        ITAG_LOAD => {
            let [rd, base] = read_exact(r)?;
            Instruction::Load {
                rd: int_reg_from_code(rd)?,
                base: int_reg_from_code(base)?,
                offset: i64_field(r)?,
            }
        }
        ITAG_STORE => {
            let [rs, base] = read_exact(r)?;
            Instruction::Store {
                rs: int_reg_from_code(rs)?,
                base: int_reg_from_code(base)?,
                offset: i64_field(r)?,
            }
        }
        ITAG_LOAD_F => {
            let [fd, base] = read_exact(r)?;
            Instruction::LoadF {
                fd: fp_reg_from_code(fd)?,
                base: int_reg_from_code(base)?,
                offset: i64_field(r)?,
            }
        }
        ITAG_STORE_F => {
            let [fs, base] = read_exact(r)?;
            Instruction::StoreF {
                fs: fp_reg_from_code(fs)?,
                base: int_reg_from_code(base)?,
                offset: i64_field(r)?,
            }
        }
        ITAG_BRANCH => {
            let [cond, rs1, rs2] = read_exact(r)?;
            Instruction::Branch {
                cond: branch_cond_from_code(cond)?,
                rs1: int_reg_from_code(rs1)?,
                rs2: int_reg_from_code(rs2)?,
                target: target(r)?,
            }
        }
        ITAG_JUMP => Instruction::Jump { target: target(r)? },
        ITAG_JUMP_AND_LINK => {
            let [rd] = read_exact(r)?;
            Instruction::JumpAndLink {
                rd: int_reg_from_code(rd)?,
                target: target(r)?,
            }
        }
        ITAG_JUMP_REG => {
            let [rs] = read_exact(r)?;
            Instruction::JumpReg {
                rs: int_reg_from_code(rs)?,
            }
        }
        ITAG_SYNC => {
            let [kind, base] = read_exact(r)?;
            Instruction::Sync {
                kind: sync_kind_from_code(kind)?,
                base: int_reg_from_code(base)?,
                offset: i64_field(r)?,
            }
        }
        ITAG_NOP => Instruction::Nop,
        ITAG_HALT => Instruction::Halt,
        other => {
            return Err(DecodeError::BadCode {
                what: "instruction tag",
                code: other as u64,
            })
        }
    })
}

fn write_program<W: Write>(w: &mut W, p: &Program) -> io::Result<()> {
    w.write_all(&(p.len() as u32).to_le_bytes())?;
    for i in p.instructions() {
        write_instruction(w, i)?;
    }
    let labels: Vec<(usize, &str)> = p.labels().collect();
    w.write_all(&(labels.len() as u32).to_le_bytes())?;
    for (pc, name) in labels {
        w.write_all(&(pc as u32).to_le_bytes())?;
        write_str(w, name)?;
    }
    Ok(())
}

fn read_program<R: Read>(r: &mut R) -> Result<Program, DecodeError> {
    let count = u32::from_le_bytes(read_exact(r)?);
    let mut instructions = Vec::with_capacity(count.min(1 << 22) as usize);
    for _ in 0..count {
        instructions.push(read_instruction(r)?);
    }
    let label_count = u32::from_le_bytes(read_exact(r)?);
    let mut labels = BTreeMap::new();
    for _ in 0..label_count {
        let pc = u32::from_le_bytes(read_exact(r)?) as usize;
        labels.insert(pc, read_str(r)?);
    }
    Ok(Program::with_labels(instructions, labels))
}

fn write_breakdown<W: Write>(w: &mut W, b: &Breakdown) -> io::Result<()> {
    for field in [b.busy, b.sync, b.read, b.write] {
        w.write_all(&field.to_le_bytes())?;
    }
    Ok(())
}

fn read_breakdown<R: Read>(r: &mut R) -> Result<Breakdown, DecodeError> {
    Ok(Breakdown {
        busy: u64::from_le_bytes(read_exact(r)?),
        sync: u64::from_le_bytes(read_exact(r)?),
        read: u64::from_le_bytes(read_exact(r)?),
        write: u64::from_le_bytes(read_exact(r)?),
    })
}

/// A complete generated run in on-disk form: everything the harness
/// needs to re-time an application without re-running the
/// multiprocessor simulation.
///
/// The `key` is the content-addressed cache fingerprint the archive
/// was generated under (workload, size tier, simulation configuration,
/// format version). Consumers must compare it against the key they
/// expect — a mismatch means a different configuration produced this
/// file and it must be regenerated, never trusted.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArchive {
    /// Canonical cache-key string (see `lookahead-harness`'s cache).
    pub key: String,
    /// Application name ("MP3D", "LU", ...).
    pub app: String,
    /// Index of the representative processor within `traces`.
    pub proc: u32,
    /// Total multiprocessor cycles of the generating run.
    pub mp_cycles: u64,
    /// Per-processor execution-time breakdowns of the generating run.
    pub breakdowns: Vec<Breakdown>,
    /// The SPMD program all processors executed.
    pub program: Program,
    /// Every processor's annotated trace.
    pub traces: Vec<Trace>,
}

/// Writes a [`TraceArchive`] in the version-2 `LKTR` container:
/// magic/version header, checksummed payload (key, app, statistics,
/// program and all traces), then an FNV-1a footer.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_archive<W: Write>(mut w: W, archive: &TraceArchive) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[ARCHIVE_V2])?;
    let mut hw = HashingWriter::new(&mut w);
    write_str(&mut hw, &archive.key)?;
    write_str(&mut hw, &archive.app)?;
    hw.write_all(&archive.proc.to_le_bytes())?;
    hw.write_all(&archive.mp_cycles.to_le_bytes())?;
    hw.write_all(&(archive.breakdowns.len() as u32).to_le_bytes())?;
    for b in &archive.breakdowns {
        write_breakdown(&mut hw, b)?;
    }
    write_program(&mut hw, &archive.program)?;
    hw.write_all(&(archive.traces.len() as u32).to_le_bytes())?;
    for t in &archive.traces {
        write_entries(&mut hw, t)?;
    }
    let checksum = hw.hash;
    w.write_all(&checksum.to_le_bytes())
}

/// Reads a [`TraceArchive`] previously written by [`write_archive`],
/// verifying the checksum footer.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed or damaged input; a payload
/// that decodes structurally but fails the checksum yields
/// [`DecodeError::BadChecksum`].
pub fn read_archive<R: Read>(mut r: R) -> Result<TraceArchive, DecodeError> {
    let magic: [u8; 4] = read_exact(&mut r)?;
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let [version] = read_exact::<_, 1>(&mut r)?;
    if version != ARCHIVE_V2 {
        return Err(DecodeError::BadVersion(version));
    }
    let mut hr = HashingReader::new(&mut r);
    let key = read_str(&mut hr)?;
    let app = read_str(&mut hr)?;
    let proc = u32::from_le_bytes(read_exact(&mut hr)?);
    let mp_cycles = u64::from_le_bytes(read_exact(&mut hr)?);
    let breakdown_count = u32::from_le_bytes(read_exact(&mut hr)?);
    let mut breakdowns = Vec::with_capacity(breakdown_count.min(1 << 16) as usize);
    for _ in 0..breakdown_count {
        breakdowns.push(read_breakdown(&mut hr)?);
    }
    let program = read_program(&mut hr)?;
    let trace_count = u32::from_le_bytes(read_exact(&mut hr)?);
    let mut traces = Vec::with_capacity(trace_count.min(1 << 16) as usize);
    for _ in 0..trace_count {
        traces.push(read_entries(&mut hr)?);
    }
    let computed = hr.hash;
    let stored = u64::from_le_bytes(read_exact(&mut r)?);
    if stored != computed {
        return Err(DecodeError::BadChecksum { stored, computed });
    }
    let archive = TraceArchive {
        key,
        app,
        proc,
        mp_cycles,
        breakdowns,
        program,
        traces,
    };
    if (archive.proc as usize) >= archive.traces.len().max(1) {
        return Err(DecodeError::BadCode {
            what: "representative processor index",
            code: archive.proc as u64,
        });
    }
    Ok(archive)
}

// ---------------------------------------------------------------------
// Version-3 archives: chunked, streamable, per-chunk checksums.
// ---------------------------------------------------------------------
//
// Layout (all integers little-endian):
//
// ```text
// "LKTR" | version=3
// header payload (FNV-hashed): key str | app str | num_procs u32 | program
// header checksum u64
// chunk record*                 -- any interleaving across processors
// end sentinel u32 = 0xFFFF_FFFF
// trailer payload (FNV-hashed): proc u32 | mp_cycles u64
//                             | breakdown count u32 | breakdowns
//                             | per-proc totals (entries u64,
//                               mem_entries u64, max_latency u32)
// trailer checksum u64
// trailer length u32            -- last 4 bytes; locates the trailer
//
// chunk record = proc u32 | entry_count u32 | byte_len u32
//              | first_index u64 | mem_entries u32 | max_latency u32
//              | entry payload (byte_len bytes)
//              | record checksum u64 (FNV over header + payload)
// ```
//
// The format is append-only — nothing is backpatched — so a writer can
// emit chunks while the multiprocessor simulation is still running and
// only needs the run statistics at `finish` time. The trailing length
// word lets readers find the trailer with two seeks from the end, and
// `byte_len` lets a per-processor reader skip foreign chunks without
// decoding them.

/// End-of-chunks sentinel in the processor field.
const END_PROC: u32 = u32::MAX;

/// Sanity caps rejecting lengths only corruption can produce.
const MAX_CHUNK_ENTRIES: u32 = 1 << 24;
const MAX_CHUNK_BYTES: u32 = 1 << 29;
const MAX_TRAILER_BYTES: u32 = 1 << 24;

fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Per-processor aggregate totals stored in the v3 trailer, used both
/// to validate chunk streams and to pre-size re-timing structures
/// without scanning the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcTotals {
    /// Total trace entries of the processor.
    pub entries: u64,
    /// Total memory-system entries (loads, stores, syncs).
    pub mem_entries: u64,
    /// Maximum access latency observed anywhere in the trace.
    pub max_latency: u32,
}

/// Everything in a v3 archive except the chunk payloads: the hashed
/// header and trailer sections, plus the file offset where the chunk
/// records begin.
#[derive(Debug, Clone)]
pub struct ArchiveInfo {
    /// Canonical cache-key string the archive was generated under.
    pub key: String,
    /// Application name.
    pub app: String,
    /// The SPMD program all processors executed.
    pub program: Program,
    /// Index of the representative (busiest) processor.
    pub proc: u32,
    /// Total multiprocessor cycles of the generating run.
    pub mp_cycles: u64,
    /// Per-processor execution-time breakdowns of the generating run.
    pub breakdowns: Vec<Breakdown>,
    /// Per-processor trace totals.
    pub totals: Vec<ProcTotals>,
    /// Byte offset of the first chunk record.
    pub chunks_start: u64,
}

impl ArchiveInfo {
    /// Number of per-processor traces in the archive.
    pub fn num_procs(&self) -> usize {
        self.totals.len()
    }
}

/// Incremental v3 archive writer: a [`TraceSink`] that streams chunk
/// records to `w` as they arrive, then seals the trailer once the run
/// statistics are known.
#[derive(Debug)]
pub struct ArchiveWriter<W: Write> {
    w: W,
    totals: Vec<ProcTotals>,
    scratch: Vec<u8>,
}

impl<W: Write> ArchiveWriter<W> {
    /// Starts a v3 archive on `w`, writing the checksummed header.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn new(
        mut w: W,
        key: &str,
        app: &str,
        num_procs: usize,
        program: &Program,
    ) -> io::Result<ArchiveWriter<W>> {
        w.write_all(MAGIC)?;
        w.write_all(&[ARCHIVE_VERSION])?;
        let mut hw = HashingWriter::new(&mut w);
        write_str(&mut hw, key)?;
        write_str(&mut hw, app)?;
        hw.write_all(&(num_procs as u32).to_le_bytes())?;
        write_program(&mut hw, program)?;
        let checksum = hw.hash;
        w.write_all(&checksum.to_le_bytes())?;
        Ok(ArchiveWriter {
            w,
            totals: vec![ProcTotals::default(); num_procs],
            scratch: Vec::new(),
        })
    }

    /// Writes the end sentinel and the checksummed trailer, returning
    /// the inner writer so the caller can flush or sync it.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn finish(
        mut self,
        proc: usize,
        mp_cycles: u64,
        breakdowns: &[Breakdown],
    ) -> io::Result<W> {
        self.w.write_all(&END_PROC.to_le_bytes())?;
        let mut payload = Vec::new();
        payload.extend_from_slice(&(proc as u32).to_le_bytes());
        payload.extend_from_slice(&mp_cycles.to_le_bytes());
        payload.extend_from_slice(&(breakdowns.len() as u32).to_le_bytes());
        for b in breakdowns {
            write_breakdown(&mut payload, b)?;
        }
        for t in &self.totals {
            payload.extend_from_slice(&t.entries.to_le_bytes());
            payload.extend_from_slice(&t.mem_entries.to_le_bytes());
            payload.extend_from_slice(&t.max_latency.to_le_bytes());
        }
        self.w.write_all(&payload)?;
        self.w.write_all(&fnv1a(&payload).to_le_bytes())?;
        self.w.write_all(&(payload.len() as u32).to_le_bytes())?;
        Ok(self.w)
    }

    /// Per-processor totals accumulated so far.
    pub fn totals(&self) -> &[ProcTotals] {
        &self.totals
    }
}

impl<W: Write> TraceSink for ArchiveWriter<W> {
    fn accept(&mut self, proc: usize, chunk: &TraceChunk) -> io::Result<()> {
        let totals = self.totals.get_mut(proc).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("chunk for processor {proc} outside archive"),
            )
        })?;
        if chunk.first_index != totals.entries {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "chunk of processor {proc} starts at entry {} but {} were written",
                    chunk.first_index, totals.entries
                ),
            ));
        }
        self.scratch.clear();
        for e in chunk.iter() {
            write_entry(&mut self.scratch, &e)?;
        }
        let mut header = [0u8; 28];
        header[0..4].copy_from_slice(&(proc as u32).to_le_bytes());
        header[4..8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        header[8..12].copy_from_slice(&(self.scratch.len() as u32).to_le_bytes());
        header[12..20].copy_from_slice(&chunk.first_index.to_le_bytes());
        header[20..24].copy_from_slice(&chunk.meta.mem_entries.to_le_bytes());
        header[24..28].copy_from_slice(&chunk.meta.max_latency.to_le_bytes());
        let checksum = fnv1a_fold(fnv1a_fold(FNV_OFFSET, &header), &self.scratch);
        self.w.write_all(&header)?;
        self.w.write_all(&self.scratch)?;
        self.w.write_all(&checksum.to_le_bytes())?;
        totals.entries = chunk.end_index();
        totals.mem_entries += chunk.meta.mem_entries as u64;
        totals.max_latency = totals.max_latency.max(chunk.meta.max_latency);
        Ok(())
    }
}

/// One decoded chunk-record header.
struct ChunkHeader {
    proc: u32,
    entry_count: u32,
    byte_len: u32,
    first_index: u64,
    meta: ChunkMeta,
    raw: [u8; 28],
}

/// Reads the next chunk-record header, or `None` at the end sentinel.
fn read_chunk_header<R: Read>(r: &mut R) -> Result<Option<ChunkHeader>, DecodeError> {
    let proc_bytes: [u8; 4] = read_exact(r)?;
    let proc = u32::from_le_bytes(proc_bytes);
    if proc == END_PROC {
        return Ok(None);
    }
    let rest: [u8; 24] = read_exact(r)?;
    let mut raw = [0u8; 28];
    raw[0..4].copy_from_slice(&proc_bytes);
    raw[4..28].copy_from_slice(&rest);
    let entry_count = u32::from_le_bytes(rest[0..4].try_into().unwrap());
    let byte_len = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    if entry_count > MAX_CHUNK_ENTRIES {
        return Err(DecodeError::BadCode {
            what: "chunk entry count",
            code: entry_count as u64,
        });
    }
    if byte_len > MAX_CHUNK_BYTES {
        return Err(DecodeError::BadCode {
            what: "chunk byte length",
            code: byte_len as u64,
        });
    }
    Ok(Some(ChunkHeader {
        proc,
        entry_count,
        byte_len,
        first_index: u64::from_le_bytes(rest[8..16].try_into().unwrap()),
        meta: ChunkMeta {
            mem_entries: u32::from_le_bytes(rest[16..20].try_into().unwrap()),
            max_latency: u32::from_le_bytes(rest[20..24].try_into().unwrap()),
        },
        raw,
    }))
}

/// Reads and checksum-verifies one record's payload into `buf`.
fn read_chunk_payload<R: Read>(
    r: &mut R,
    h: &ChunkHeader,
    buf: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    buf.clear();
    buf.resize(h.byte_len as usize, 0);
    r.read_exact(buf)?;
    let stored = u64::from_le_bytes(read_exact(r)?);
    let computed = fnv1a_fold(fnv1a_fold(FNV_OFFSET, &h.raw), buf);
    if stored != computed {
        return Err(DecodeError::BadChecksum { stored, computed });
    }
    Ok(())
}

/// Reads a v3 archive's header and trailer (both checksum-verified)
/// without touching the chunk payloads — two seeks plus the header
/// read, regardless of archive size.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed or damaged input, including
/// [`DecodeError::BadVersion`] for v1/v2 files.
pub fn read_archive_info<R: Read + Seek>(mut r: R) -> Result<ArchiveInfo, DecodeError> {
    r.seek(SeekFrom::Start(0))?;
    let magic: [u8; 4] = read_exact(&mut r)?;
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let [version] = read_exact::<_, 1>(&mut r)?;
    if version != ARCHIVE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let mut hr = HashingReader::new(&mut r);
    let key = read_str(&mut hr)?;
    let app = read_str(&mut hr)?;
    let num_procs = u32::from_le_bytes(read_exact(&mut hr)?);
    if num_procs == 0 || num_procs > 1 << 16 {
        return Err(DecodeError::BadCode {
            what: "processor count",
            code: num_procs as u64,
        });
    }
    let program = read_program(&mut hr)?;
    let computed = hr.hash;
    let stored = u64::from_le_bytes(read_exact(&mut r)?);
    if stored != computed {
        return Err(DecodeError::BadChecksum { stored, computed });
    }
    let chunks_start = r.stream_position()?;

    let file_len = r.seek(SeekFrom::End(0))?;
    r.seek(SeekFrom::End(-4))?;
    let trailer_len = u32::from_le_bytes(read_exact(&mut r)?);
    if trailer_len > MAX_TRAILER_BYTES || (trailer_len as u64) + 12 > file_len - chunks_start {
        return Err(DecodeError::BadCode {
            what: "trailer length",
            code: trailer_len as u64,
        });
    }
    r.seek(SeekFrom::End(-(trailer_len as i64 + 12)))?;
    let mut payload = vec![0u8; trailer_len as usize];
    r.read_exact(&mut payload)?;
    let stored = u64::from_le_bytes(read_exact(&mut r)?);
    let computed = fnv1a(&payload);
    if stored != computed {
        return Err(DecodeError::BadChecksum { stored, computed });
    }

    let p = &mut payload.as_slice();
    let proc = u32::from_le_bytes(read_exact(p)?);
    let mp_cycles = u64::from_le_bytes(read_exact(p)?);
    let breakdown_count = u32::from_le_bytes(read_exact(p)?);
    if breakdown_count != num_procs {
        return Err(DecodeError::BadCode {
            what: "breakdown count",
            code: breakdown_count as u64,
        });
    }
    let mut breakdowns = Vec::with_capacity(num_procs as usize);
    for _ in 0..breakdown_count {
        breakdowns.push(read_breakdown(p)?);
    }
    let mut totals = Vec::with_capacity(num_procs as usize);
    for _ in 0..num_procs {
        totals.push(ProcTotals {
            entries: u64::from_le_bytes(read_exact(p)?),
            mem_entries: u64::from_le_bytes(read_exact(p)?),
            max_latency: u32::from_le_bytes(read_exact(p)?),
        });
    }
    if !p.is_empty() {
        return Err(DecodeError::BadCode {
            what: "trailer length",
            code: trailer_len as u64,
        });
    }
    if proc >= num_procs {
        return Err(DecodeError::BadCode {
            what: "representative processor index",
            code: proc as u64,
        });
    }
    Ok(ArchiveInfo {
        key,
        app,
        program,
        proc,
        mp_cycles,
        breakdowns,
        totals,
        chunks_start,
    })
}

/// Sequentially verifies every chunk record of a v3 archive against
/// its per-record checksum and the trailer totals, without decoding a
/// single entry. Records are read in batches of up to four, and a
/// batch's payloads together stay within the 512 MiB cap on one
/// record's payload, so memory use is bounded regardless of archive
/// size. A batch's checksums are folded in four interleaved FNV-1a
/// lanes, which give the same values as hashing one record at a time.
///
/// A cache can therefore establish, in one bounded pass at load time,
/// that streaming any processor's chunks later cannot fail on damaged
/// data — corruption is handled by eviction up front, not by surprise
/// mid-re-timing.
///
/// # Errors
///
/// Returns a [`DecodeError`] naming the first inconsistency in file
/// order.
pub fn validate_archive_chunks<R: Read + Seek>(
    r: R,
    info: &ArchiveInfo,
) -> Result<(), DecodeError> {
    validate_chunks_batched(r, info, MAX_CHUNK_BYTES as usize)
}

/// Records hashed side by side by [`validate_archive_chunks`].
const LANES: usize = 4;

/// [`validate_archive_chunks`] with the batch payload cap as a
/// parameter, so tests can force short batches.
///
/// Each batch reads up to [`LANES`] records, checking headers in file
/// order, then verifies their checksums. A structural error (bad
/// header, short read) found in record `k` of a batch is reported only
/// after records `0..k` have been hashed, so a damaged checksum earlier
/// in the file still wins, exactly as in a one-record-at-a-time walk.
/// Per-processor totals advance as headers pass their checks; if a
/// checksum then fails, that error is returned before anything the
/// advanced totals could have caused.
fn validate_chunks_batched<R: Read + Seek>(
    mut r: R,
    info: &ArchiveInfo,
    max_batch_bytes: usize,
) -> Result<(), DecodeError> {
    r.seek(SeekFrom::Start(info.chunks_start))?;
    let mut seen = vec![ProcTotals::default(); info.totals.len()];
    let mut batch = Batch {
        records: Vec::with_capacity(LANES),
        buf: Vec::new(),
        carried: None,
    };
    loop {
        let more = batch.fill(&mut r, &mut seen, max_batch_bytes);
        batch.verify()?;
        if !more? {
            break;
        }
    }
    if seen != info.totals {
        return Err(DecodeError::BadCode {
            what: "per-processor totals",
            code: 0,
        });
    }
    Ok(())
}

/// Up to [`LANES`] chunk records read for checksum verification.
struct Batch {
    records: Vec<BatchRecord>,
    /// The records' payloads, back to back.
    buf: Vec<u8>,
    /// A header already read but left for the next batch by the cap.
    carried: Option<ChunkHeader>,
}

/// One record of a [`Batch`]: its header, where its payload sits in
/// the batch buffer, and its stored checksum.
struct BatchRecord {
    raw: [u8; 28],
    payload: std::ops::Range<usize>,
    stored: u64,
}

impl Batch {
    /// Replaces the batch with the next records, checking each header
    /// against the totals `seen` so far and advancing them. Stops
    /// early at the end sentinel (returning `false`), before a record
    /// that would take the payloads past `max_bytes`, and at the
    /// first error, which the caller reports after verifying the
    /// records read before it.
    fn fill<R: Read>(
        &mut self,
        r: &mut R,
        seen: &mut [ProcTotals],
        max_bytes: usize,
    ) -> Result<bool, DecodeError> {
        self.records.clear();
        self.buf.clear();
        while self.records.len() < LANES {
            let h = match self.carried.take() {
                Some(h) => h,
                None => match read_chunk_header(r)? {
                    Some(h) => h,
                    None => return Ok(false),
                },
            };
            if !self.records.is_empty() && self.buf.len() + h.byte_len as usize > max_bytes {
                self.carried = Some(h);
                break;
            }
            let Some(acc) = seen.get_mut(h.proc as usize) else {
                return Err(DecodeError::BadCode {
                    what: "chunk processor index",
                    code: h.proc as u64,
                });
            };
            if h.first_index != acc.entries {
                return Err(DecodeError::BadCode {
                    what: "chunk first index",
                    code: h.first_index,
                });
            }
            acc.entries += h.entry_count as u64;
            acc.mem_entries += h.meta.mem_entries as u64;
            acc.max_latency = acc.max_latency.max(h.meta.max_latency);
            let start = self.buf.len();
            self.buf.resize(start + h.byte_len as usize, 0);
            r.read_exact(&mut self.buf[start..])?;
            let stored = u64::from_le_bytes(read_exact(r)?);
            self.records.push(BatchRecord {
                raw: h.raw,
                payload: start..self.buf.len(),
                stored,
            });
        }
        Ok(true)
    }

    /// Verifies the records' checksums; the first mismatch in file
    /// order is the error.
    fn verify(&self) -> Result<(), DecodeError> {
        let Some(first) = self.records.first() else {
            return Ok(());
        };
        // A short batch fills its spare lanes with the first record and
        // ignores their results.
        let pick = |lane: usize| self.records.get(lane).unwrap_or(first);
        let start = |lane: usize| fnv1a_fold(FNV_OFFSET, &pick(lane).raw);
        let payload = |lane: usize| &self.buf[pick(lane).payload.clone()];
        let computed = fnv1a_fold_lanes(
            [start(0), start(1), start(2), start(3)],
            [payload(0), payload(1), payload(2), payload(3)],
        );
        for (record, computed) in self.records.iter().zip(computed) {
            if record.stored != computed {
                return Err(DecodeError::BadChecksum {
                    stored: record.stored,
                    computed,
                });
            }
        }
        Ok(())
    }
}

/// `fnv1a_fold(h[i], bytes[i])` for four lanes at once. One FNV-1a
/// hash is a serial chain of multiplies, so it runs at multiply
/// latency; interleaving four independent chains over their common
/// prefix keeps four multiplies in flight. Each tail finishes
/// serially.
fn fnv1a_fold_lanes(mut h: [u64; LANES], bytes: [&[u8]; LANES]) -> [u64; LANES] {
    let common = bytes.iter().map(|b| b.len()).min().unwrap_or(0);
    let [b0, b1, b2, b3] = bytes.map(|b| &b[..common]);
    for (((&x0, &x1), &x2), &x3) in b0.iter().zip(b1).zip(b2).zip(b3) {
        h[0] = (h[0] ^ x0 as u64).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ x1 as u64).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ x2 as u64).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ x3 as u64).wrapping_mul(FNV_PRIME);
    }
    for (h, b) in h.iter_mut().zip(bytes) {
        *h = fnv1a_fold(*h, &b[common..]);
    }
    h
}

/// A [`TraceSource`] streaming one processor's chunks out of a v3
/// archive, skipping other processors' records via their length
/// fields. Each record is checksum-verified as it is read.
#[derive(Debug)]
pub struct ChunkReader<R: Read + Seek> {
    r: R,
    proc: u32,
    totals: ProcTotals,
    next_index: u64,
    done: bool,
    buf: Vec<u8>,
}

impl<R: Read + Seek> ChunkReader<R> {
    /// A source for processor `proc` of the archive described by
    /// `info`, reading from `r` (typically a buffered clone of the
    /// archive's file handle).
    ///
    /// # Errors
    ///
    /// Fails if `proc` is out of range or the initial seek fails.
    pub fn new(mut r: R, info: &ArchiveInfo, proc: usize) -> Result<ChunkReader<R>, DecodeError> {
        let totals = *info.totals.get(proc).ok_or(DecodeError::BadCode {
            what: "processor index",
            code: proc as u64,
        })?;
        r.seek(SeekFrom::Start(info.chunks_start))?;
        Ok(ChunkReader {
            r,
            proc: proc as u32,
            totals,
            next_index: 0,
            done: false,
            buf: Vec::new(),
        })
    }
}

impl<R: Read + Seek> TraceSource for ChunkReader<R> {
    fn next_chunk(&mut self) -> Result<Option<Arc<TraceChunk>>, StreamError> {
        if self.done {
            return Ok(None);
        }
        loop {
            let Some(h) = read_chunk_header(&mut self.r)? else {
                self.done = true;
                if self.next_index != self.totals.entries {
                    return Err(StreamError::Corrupt(format!(
                        "processor {} stream ended at entry {} of {}",
                        self.proc, self.next_index, self.totals.entries
                    )));
                }
                return Ok(None);
            };
            if h.proc != self.proc {
                self.r
                    .seek(SeekFrom::Current(h.byte_len as i64 + 8))
                    .map_err(DecodeError::Io)?;
                continue;
            }
            read_chunk_payload(&mut self.r, &h, &mut self.buf)?;
            let mut chunk = TraceChunk::with_capacity(h.first_index, h.entry_count as usize);
            let payload = &mut self.buf.as_slice();
            for _ in 0..h.entry_count {
                chunk.push(read_entry(payload)?);
            }
            if !payload.is_empty() {
                return Err(StreamError::Corrupt(format!(
                    "chunk of processor {} has {} trailing bytes",
                    self.proc,
                    payload.len()
                )));
            }
            if chunk.meta != h.meta {
                return Err(StreamError::Corrupt(format!(
                    "chunk of processor {} declares metadata {:?} but decodes to {:?}",
                    self.proc, h.meta, chunk.meta
                )));
            }
            self.next_index = chunk.end_index();
            return Ok(Some(Arc::new(chunk)));
        }
    }

    fn entries_hint(&self) -> Option<u64> {
        Some(self.totals.entries)
    }

    fn max_latency_hint(&self) -> Option<u32> {
        Some(self.totals.max_latency)
    }
}

/// Writes a complete [`TraceArchive`] in the v3 chunked container,
/// slicing each trace into chunks of `chunk_len` entries. Entries are
/// encoded straight from the trace slices — nothing is deep-copied.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_archive_v3<W: Write>(
    w: W,
    archive: &TraceArchive,
    chunk_len: usize,
) -> io::Result<()> {
    let mut aw = ArchiveWriter::new(
        w,
        &archive.key,
        &archive.app,
        archive.traces.len(),
        &archive.program,
    )?;
    for (proc, trace) in archive.traces.iter().enumerate() {
        let mut src = SliceSource::with_chunk_len(trace, chunk_len.max(1));
        while let Some(chunk) = src.next_chunk().expect("slice sources cannot fail") {
            aw.accept(proc, &chunk)?;
        }
    }
    aw.finish(
        archive.proc as usize,
        archive.mp_cycles,
        &archive.breakdowns,
    )?;
    Ok(())
}

/// Reads a whole v3 archive back into a materialized [`TraceArchive`]
/// — the round-trip counterpart of [`write_archive_v3`], used by tests
/// and anything that genuinely needs every trace in memory.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed or damaged input.
pub fn read_archive_v3<R: Read + Seek>(mut r: R) -> Result<TraceArchive, DecodeError> {
    let info = read_archive_info(&mut r)?;
    let mut traces = Vec::with_capacity(info.num_procs());
    for proc in 0..info.num_procs() {
        let mut src = ChunkReader::new(&mut r, &info, proc)?;
        let trace = crate::stream::collect_source(&mut src).map_err(|e| match e {
            StreamError::Io(e) => DecodeError::Io(e),
            StreamError::Decode(e) => e,
            StreamError::Corrupt(m) => DecodeError::BadCode {
                what: "chunk stream",
                code: fnv1a(m.as_bytes()),
            },
        })?;
        if trace.len() as u64 != info.totals[proc].entries {
            return Err(DecodeError::BadCode {
                what: "per-processor totals",
                code: trace.len() as u64,
            });
        }
        traces.push(trace);
    }
    Ok(TraceArchive {
        key: info.key,
        app: info.app,
        proc: info.proc,
        mp_cycles: info.mp_cycles,
        breakdowns: info.breakdowns,
        program: info.program,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookahead_isa::rng::XorShift64;

    fn roundtrip(trace: &Trace) -> Trace {
        let mut buf = Vec::new();
        write_trace(&mut buf, trace).unwrap();
        read_trace(buf.as_slice()).unwrap()
    }

    #[test]
    fn empty_trace_roundtrips() {
        assert_eq!(roundtrip(&Trace::new()), Trace::new());
    }

    #[test]
    fn all_variants_roundtrip() {
        let mut t = Trace::new();
        t.push(TraceEntry::compute(1));
        t.push(TraceEntry {
            pc: 2,
            op: TraceOp::Load(MemAccess::miss(0xdead0, 50)),
        });
        t.push(TraceEntry {
            pc: 3,
            op: TraceOp::Store(MemAccess::hit(0x10)),
        });
        t.push(TraceEntry {
            pc: 4,
            op: TraceOp::Branch {
                taken: true,
                target: 99,
            },
        });
        t.push(TraceEntry {
            pc: 5,
            op: TraceOp::Jump { target: 7 },
        });
        t.push(TraceEntry {
            pc: 6,
            op: TraceOp::Sync(SyncAccess {
                kind: SyncKind::Barrier,
                addr: 0x40,
                wait: 123,
                access: 50,
            }),
        });
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new()).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_trace(buf.as_slice()).unwrap_err(),
            DecodeError::BadVersion(99)
        ));
    }

    #[test]
    fn zero_latency_rejected() {
        let mut t = Trace::new();
        t.push(TraceEntry {
            pc: 0,
            op: TraceOp::Load(MemAccess {
                addr: 8,
                miss: false,
                latency: 0,
            }),
        });
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        assert!(matches!(
            read_trace(buf.as_slice()).unwrap_err(),
            DecodeError::BadLatency
        ));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut buf = Vec::new();
        let mut t = Trace::new();
        t.push(TraceEntry::compute(1));
        write_trace(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(matches!(
            read_trace(buf.as_slice()).unwrap_err(),
            DecodeError::Io(_)
        ));
    }

    const SYNC_KINDS: [SyncKind; 5] = [
        SyncKind::Lock,
        SyncKind::Unlock,
        SyncKind::Barrier,
        SyncKind::WaitEvent,
        SyncKind::SetEvent,
    ];

    fn gen_entry(rng: &mut XorShift64) -> TraceEntry {
        let nonzero_u32 = |rng: &mut XorShift64| (rng.next_u64() as u32).max(1);
        let op = match rng.next_below(6) {
            0 => TraceOp::Compute,
            1 => TraceOp::Load(MemAccess {
                addr: rng.next_u64(),
                miss: rng.next_bool(),
                latency: nonzero_u32(rng),
            }),
            2 => TraceOp::Store(MemAccess {
                addr: rng.next_u64(),
                miss: rng.next_bool(),
                latency: nonzero_u32(rng),
            }),
            3 => TraceOp::Branch {
                taken: rng.next_bool(),
                target: rng.next_u64() as u32,
            },
            4 => TraceOp::Jump {
                target: rng.next_u64() as u32,
            },
            _ => TraceOp::Sync(SyncAccess {
                kind: *rng.choose(&SYNC_KINDS),
                addr: rng.next_u64(),
                wait: rng.next_u64() as u32,
                access: nonzero_u32(rng),
            }),
        };
        TraceEntry {
            pc: rng.next_u64() as u32,
            op,
        }
    }

    #[test]
    fn arbitrary_traces_roundtrip() {
        let mut rng = XorShift64::seed_from_u64(0xF1);
        for case in 0..128 {
            let len = rng.range_usize(200);
            let entries: Vec<TraceEntry> = (0..len).map(|_| gen_entry(&mut rng)).collect();
            let t = Trace::from_entries(entries);
            assert_eq!(roundtrip(&t), t, "case {case}");
        }
    }

    fn sample_archive(rng: &mut XorShift64, num_procs: usize) -> TraceArchive {
        use lookahead_isa::{Assembler, IntReg};
        let mut a = Assembler::new();
        a.li(IntReg::T0, 1);
        a.halt();
        TraceArchive {
            key: "lktr-v3;app=TEST".to_string(),
            app: "TEST".to_string(),
            proc: (num_procs - 1) as u32,
            mp_cycles: 123_456,
            breakdowns: (0..num_procs)
                .map(|i| Breakdown {
                    busy: i as u64,
                    sync: 1,
                    read: 2,
                    write: 3,
                })
                .collect(),
            program: a.assemble().unwrap(),
            traces: (0..num_procs)
                .map(|_| {
                    let len = rng.range_usize(300);
                    Trace::from_entries((0..len).map(|_| gen_entry(rng)).collect())
                })
                .collect(),
        }
    }

    #[test]
    fn v3_roundtrips_at_awkward_chunk_sizes() {
        let mut rng = XorShift64::seed_from_u64(0xA3);
        for chunk_len in [1usize, 7, crate::stream::DEFAULT_CHUNK_LEN, 100_000] {
            let archive = sample_archive(&mut rng, 4);
            let mut buf = Vec::new();
            write_archive_v3(&mut buf, &archive, chunk_len).unwrap();
            let got = read_archive_v3(io::Cursor::new(&buf)).unwrap();
            assert_eq!(got, archive, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn v3_info_and_validation_agree_with_content() {
        let mut rng = XorShift64::seed_from_u64(0xB4);
        let archive = sample_archive(&mut rng, 3);
        let mut buf = Vec::new();
        write_archive_v3(&mut buf, &archive, 16).unwrap();
        let info = read_archive_info(io::Cursor::new(&buf)).unwrap();
        assert_eq!(info.key, archive.key);
        assert_eq!(info.proc, archive.proc);
        assert_eq!(info.mp_cycles, archive.mp_cycles);
        assert_eq!(info.breakdowns, archive.breakdowns);
        for (p, t) in archive.traces.iter().enumerate() {
            assert_eq!(info.totals[p].entries, t.len() as u64);
            assert_eq!(info.totals[p].mem_entries, t.mem_entries() as u64);
        }
        validate_archive_chunks(io::Cursor::new(&buf), &info).unwrap();
    }

    #[test]
    fn v3_chunk_reader_hints_and_skip_foreign_procs() {
        let mut rng = XorShift64::seed_from_u64(0xC5);
        let archive = sample_archive(&mut rng, 4);
        let mut buf = Vec::new();
        write_archive_v3(&mut buf, &archive, 9).unwrap();
        let info = read_archive_info(io::Cursor::new(&buf)).unwrap();
        for (p, want) in archive.traces.iter().enumerate() {
            let mut src = ChunkReader::new(io::Cursor::new(&buf), &info, p).unwrap();
            assert_eq!(src.entries_hint(), Some(want.len() as u64));
            let got = crate::stream::collect_source(&mut src).unwrap();
            assert_eq!(&got, want, "proc {p}");
        }
    }

    #[test]
    fn v3_flipped_bit_is_detected_wherever_it_lands() {
        let mut rng = XorShift64::seed_from_u64(0xD6);
        let archive = sample_archive(&mut rng, 2);
        let mut clean = Vec::new();
        write_archive_v3(&mut clean, &archive, 8).unwrap();
        for case in 0..64 {
            let mut buf = clean.clone();
            let pos = rng.range_usize(buf.len() - 5) + 5; // keep magic/version intact
            let bit = 1u8 << rng.next_below(8);
            buf[pos] ^= bit;
            let damaged = match read_archive_info(io::Cursor::new(&buf)) {
                Err(_) => true,
                Ok(info) => validate_archive_chunks(io::Cursor::new(&buf), &info).is_err(),
            };
            assert!(damaged, "case {case}: flip at byte {pos} went undetected");
        }
    }

    /// The one-record-at-a-time walk [`validate_archive_chunks`]
    /// replaced: read a header, check it, read and hash its payload,
    /// then move on.
    fn validate_archive_chunks_serial<R: Read + Seek>(
        mut r: R,
        info: &ArchiveInfo,
    ) -> Result<(), DecodeError> {
        r.seek(SeekFrom::Start(info.chunks_start))?;
        let mut seen = vec![ProcTotals::default(); info.totals.len()];
        let mut buf = Vec::new();
        while let Some(h) = read_chunk_header(&mut r)? {
            let proc = h.proc as usize;
            let Some(acc) = seen.get_mut(proc) else {
                return Err(DecodeError::BadCode {
                    what: "chunk processor index",
                    code: h.proc as u64,
                });
            };
            if h.first_index != acc.entries {
                return Err(DecodeError::BadCode {
                    what: "chunk first index",
                    code: h.first_index,
                });
            }
            read_chunk_payload(&mut r, &h, &mut buf)?;
            acc.entries += h.entry_count as u64;
            acc.mem_entries += h.meta.mem_entries as u64;
            acc.max_latency = acc.max_latency.max(h.meta.max_latency);
        }
        if seen != info.totals {
            return Err(DecodeError::BadCode {
                what: "per-processor totals",
                code: 0,
            });
        }
        Ok(())
    }

    #[test]
    fn fnv1a_lanes_match_the_serial_fold() {
        let mut rng = XorShift64::seed_from_u64(0x4A);
        let data: Vec<u8> = (0..600).map(|_| rng.next_u64() as u8).collect();
        for case in 0..64 {
            let cut = |rng: &mut XorShift64| {
                let start = rng.range_usize(data.len());
                &data[start..start + rng.range_usize(data.len() - start + 1)]
            };
            let bytes = [cut(&mut rng), cut(&mut rng), cut(&mut rng), cut(&mut rng)];
            let seeds = [0, 1, 2, 3].map(|i| FNV_OFFSET ^ i);
            let want = [0, 1, 2, 3].map(|i| fnv1a_fold(seeds[i], bytes[i]));
            assert_eq!(fnv1a_fold_lanes(seeds, bytes), want, "case {case}");
        }
    }

    #[test]
    fn batched_validation_matches_the_serial_walk_on_every_flip_and_cut() {
        // Eleven records of uneven lengths from three interleaved
        // processors: two full batches of four and a short one of
        // three, with lanes of different lengths in every batch.
        let mut rng = XorShift64::seed_from_u64(0x5B);
        let lens = [5usize, 1, 9, 3, 14, 2, 7, 11, 4, 6, 13];
        let mut a = lookahead_isa::Assembler::new();
        a.halt();
        let program = a.assemble().unwrap();
        let mut file = Vec::new();
        let mut w = ArchiveWriter::new(&mut file, "k", "APP", 3, &program).unwrap();
        let mut next_index = [0u64; 3];
        for (i, &len) in lens.iter().enumerate() {
            let proc = [0, 2, 1, 0, 0, 1, 2, 2, 0, 1, 0][i];
            let entries: Vec<TraceEntry> = (0..len).map(|_| gen_entry(&mut rng)).collect();
            w.accept(proc, &TraceChunk::from_slice(next_index[proc], &entries))
                .unwrap();
            next_index[proc] += len as u64;
        }
        w.finish(0, 1, &[Breakdown::default(); 3]).unwrap();
        let info = read_archive_info(io::Cursor::new(&file)).unwrap();
        let trailer_len = u32::from_le_bytes(file[file.len() - 4..].try_into().unwrap());
        let chunks_end = file.len() - trailer_len as usize - 12;
        let chunks = info.chunks_start as usize..chunks_end;

        // Batch caps: the real one, one that splits batches after two
        // or three records, and one that leaves a record per batch.
        let caps = [MAX_CHUNK_BYTES as usize, 160, 1];
        let mut outcomes = std::collections::BTreeMap::<&str, usize>::new();
        let mut check = |bytes: &[u8], what: &str| {
            let serial = validate_archive_chunks_serial(io::Cursor::new(bytes), &info);
            let variant = match &serial {
                Ok(()) => "Ok",
                Err(DecodeError::BadChecksum { .. }) => "BadChecksum",
                Err(DecodeError::BadCode { .. }) => "BadCode",
                Err(DecodeError::Io(_)) => "Io",
                Err(_) => "other",
            };
            *outcomes.entry(variant).or_default() += 1;
            // `DecodeError` holds an `io::Error`, so compare the debug
            // forms: variant, fields and I/O error kind alike.
            let want = format!("{serial:?}");
            for cap in caps {
                let got = format!(
                    "{:?}",
                    validate_chunks_batched(io::Cursor::new(bytes), &info, cap)
                );
                assert_eq!(got, want, "{what}, batch cap {cap}");
            }
        };
        check(&file, "clean archive");
        for pos in chunks.clone() {
            for mask in [0x01u8, 0x80] {
                let mut damaged = file.clone();
                damaged[pos] ^= mask;
                check(&damaged, &format!("byte {pos} ^ {mask:#04x}"));
            }
        }
        for len in chunks.start..=chunks.end {
            check(&file[..len], &format!("cut at {len}"));
        }
        // Every kind of first error the walk can meet came up.
        for variant in ["Ok", "BadChecksum", "BadCode", "Io"] {
            assert!(
                outcomes.contains_key(variant),
                "no {variant} in {outcomes:?}"
            );
        }
    }

    #[test]
    fn v3_reader_rejects_v2_files_as_bad_version() {
        let mut rng = XorShift64::seed_from_u64(0xE7);
        let archive = sample_archive(&mut rng, 2);
        let mut buf = Vec::new();
        write_archive(&mut buf, &archive).unwrap();
        assert!(matches!(
            read_archive_info(io::Cursor::new(&buf)).unwrap_err(),
            DecodeError::BadVersion(2)
        ));
    }

    #[test]
    fn v3_writer_streams_interleaved_procs() {
        let t0 = Trace::from_entries((0..10).map(TraceEntry::compute).collect());
        let t1 = Trace::from_entries((10..14).map(TraceEntry::compute).collect());
        let mut a = lookahead_isa::Assembler::new();
        a.halt();
        let program = a.assemble().unwrap();
        let mut buf = Vec::new();
        let mut w = ArchiveWriter::new(&mut buf, "k", "APP", 2, &program).unwrap();
        // Interleave: proc 1, proc 0, proc 0, proc 1 — per-proc order holds.
        w.accept(1, &TraceChunk::from_slice(0, &t1.entries()[0..2]))
            .unwrap();
        w.accept(0, &TraceChunk::from_slice(0, &t0.entries()[0..6]))
            .unwrap();
        w.accept(0, &TraceChunk::from_slice(6, &t0.entries()[6..10]))
            .unwrap();
        w.accept(1, &TraceChunk::from_slice(2, &t1.entries()[2..4]))
            .unwrap();
        let breakdowns = vec![Breakdown::default(); 2];
        w.finish(0, 7, &breakdowns).unwrap();
        let got = read_archive_v3(io::Cursor::new(&buf)).unwrap();
        assert_eq!(got.traces, vec![t0, t1]);
        assert_eq!(got.mp_cycles, 7);
    }

    #[test]
    fn v3_writer_rejects_out_of_order_chunks() {
        let mut a = lookahead_isa::Assembler::new();
        a.halt();
        let program = a.assemble().unwrap();
        let mut buf = Vec::new();
        let mut w = ArchiveWriter::new(&mut buf, "k", "APP", 1, &program).unwrap();
        let err = w
            .accept(0, &TraceChunk::from_slice(5, &[TraceEntry::compute(0)]))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
