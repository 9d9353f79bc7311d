//! Deterministic byte encoding of binaries (the "code section").
//!
//! NCD — the paper's fitness function — is computed over these bytes, so the
//! encoding is designed to reproduce the properties the paper relies on:
//!
//! * **Variable length** on x86 targets (short immediates encode smaller),
//!   so peephole/strength-reduction rewrites change byte counts.
//! * **Layout sensitivity**: fall-through edges elide their jump, so
//!   `-freorder-blocks` / `-freorder-functions` perturb the bytes.
//! * **Regularity**: `-O0` boilerplate (stack-slot traffic) produces highly
//!   repetitive byte patterns that compress well; optimized code does not.
//!
//! A decoder is provided for round-trip testing and for tools that want to
//! re-derive an instruction stream from raw bytes.

use crate::cfg::Terminator;
use crate::codec::{cond, gpr};
use crate::cursor::{CodecError, Cursor};
use crate::insn::{Cond, Insn, MemRef, Opcode, Operand};
use crate::program::{Arch, Binary, Function};
use crate::reg::{Gpr, Xmm};
use bytes::{BufMut, BytesMut};

/// Byte used for alignment padding (`nop`).
pub const PAD_BYTE: u8 = 0x90;

fn op_tag(op: Opcode) -> u8 {
    match op {
        Opcode::Mov => 0x10,
        Opcode::Lea => 0x11,
        Opcode::Add => 0x12,
        Opcode::Sub => 0x13,
        Opcode::Sbb => 0x14,
        Opcode::Adc => 0x15,
        Opcode::Imul => 0x16,
        Opcode::Udiv => 0x17,
        Opcode::Urem => 0x18,
        Opcode::Umulh => 0x19,
        Opcode::And => 0x1a,
        Opcode::Or => 0x1b,
        Opcode::Xor => 0x1c,
        Opcode::Not => 0x1d,
        Opcode::Neg => 0x1e,
        Opcode::Inc => 0x1f,
        Opcode::Dec => 0x20,
        Opcode::Shl => 0x21,
        Opcode::Shr => 0x22,
        Opcode::Sar => 0x23,
        Opcode::Cmp => 0x24,
        Opcode::Test => 0x25,
        Opcode::Set(_) => 0x26,
        Opcode::Cmov(_) => 0x27,
        Opcode::Push => 0x28,
        Opcode::Pop => 0x29,
        Opcode::Call => 0x2a,
        Opcode::CallImport => 0x2b,
        Opcode::Vload => 0x2c,
        Opcode::Vstore => 0x2d,
        Opcode::Vadd => 0x2e,
        Opcode::Vsub => 0x2f,
        Opcode::Vmul => 0x30,
        Opcode::Vhsum => 0x31,
        Opcode::Nop => PAD_BYTE,
    }
}

fn tag_op(tag: u8, cond: Option<Cond>) -> Option<Opcode> {
    Some(match tag {
        0x10 => Opcode::Mov,
        0x11 => Opcode::Lea,
        0x12 => Opcode::Add,
        0x13 => Opcode::Sub,
        0x14 => Opcode::Sbb,
        0x15 => Opcode::Adc,
        0x16 => Opcode::Imul,
        0x17 => Opcode::Udiv,
        0x18 => Opcode::Urem,
        0x19 => Opcode::Umulh,
        0x1a => Opcode::And,
        0x1b => Opcode::Or,
        0x1c => Opcode::Xor,
        0x1d => Opcode::Not,
        0x1e => Opcode::Neg,
        0x1f => Opcode::Inc,
        0x20 => Opcode::Dec,
        0x21 => Opcode::Shl,
        0x22 => Opcode::Shr,
        0x23 => Opcode::Sar,
        0x24 => Opcode::Cmp,
        0x25 => Opcode::Test,
        0x26 => Opcode::Set(cond?),
        0x27 => Opcode::Cmov(cond?),
        0x28 => Opcode::Push,
        0x29 => Opcode::Pop,
        0x2a => Opcode::Call,
        0x2b => Opcode::CallImport,
        0x2c => Opcode::Vload,
        0x2d => Opcode::Vstore,
        0x2e => Opcode::Vadd,
        0x2f => Opcode::Vsub,
        0x30 => Opcode::Vmul,
        0x31 => Opcode::Vhsum,
        PAD_BYTE => Opcode::Nop,
        _ => return None,
    })
}

// Terminator tags.
const T_JMP: u8 = 0xe0;
const T_BR: u8 = 0xe1;
const T_TABLE: u8 = 0xe2;
const T_LOOP: u8 = 0xe3;
const T_RET: u8 = 0xe4;
const T_TAILCALL: u8 = 0xe5;
// x86-64 extended-register prefix.
const PREFIX_EXT: u8 = 0x66;

// Operand kind tags.
const K_REG: u8 = 0x01;
const K_VEC: u8 = 0x02;
const K_IMM8: u8 = 0x03;
const K_IMM32: u8 = 0x04;
const K_MEM: u8 = 0x05;

fn put_operand(buf: &mut BytesMut, o: &Operand) {
    match o {
        Operand::Reg(r) => {
            buf.put_u8(K_REG);
            buf.put_u8(r.number());
        }
        Operand::Vec(x) => {
            buf.put_u8(K_VEC);
            buf.put_u8(x.0);
        }
        Operand::Imm(v) => {
            if let Ok(b) = i8::try_from(*v) {
                buf.put_u8(K_IMM8);
                buf.put_i8(b);
            } else {
                buf.put_u8(K_IMM32);
                buf.put_i32_le(*v as i32);
            }
        }
        Operand::Mem(m) => {
            buf.put_u8(K_MEM);
            let disp_size = if m.disp == 0 {
                0u8
            } else if i8::try_from(m.disp).is_ok() {
                1
            } else {
                2
            };
            let mut mode = disp_size;
            if m.base.is_some() {
                mode |= 0x80;
            }
            if m.index.is_some() {
                mode |= 0x40;
            }
            mode |= (m.scale.trailing_zeros() as u8 & 0x3) << 4;
            buf.put_u8(mode);
            if let Some(b) = m.base {
                buf.put_u8(b.number());
            }
            if let Some(i) = m.index {
                buf.put_u8(i.number());
            }
            match disp_size {
                1 => buf.put_i8(m.disp as i8),
                2 => buf.put_i32_le(m.disp),
                _ => {}
            }
        }
    }
}

fn uses_extended_reg(insn: &Insn) -> bool {
    let ext = |o: &Operand| match o {
        Operand::Reg(r) => r.is_extended(),
        Operand::Mem(m) => m.regs().any(|r| r.is_extended()),
        _ => false,
    };
    insn.a.as_ref().is_some_and(ext) || insn.b.as_ref().is_some_and(ext)
}

fn put_insn(buf: &mut BytesMut, insn: &Insn, arch: Arch) {
    let start = buf.len();
    if arch == Arch::X8664 && uses_extended_reg(insn) {
        buf.put_u8(PREFIX_EXT);
    }
    let tag = match arch {
        Arch::X86 | Arch::X8664 | Arch::Arm => op_tag(insn.op),
        Arch::Mips => op_tag(insn.op).wrapping_add(0x80),
    };
    buf.put_u8(tag);
    if let Opcode::Set(c) | Opcode::Cmov(c) = insn.op {
        buf.put_u8(c.number());
    }
    match arch {
        Arch::Mips => {
            // MIPS flavour: operands in reverse order.
            if let Some(b) = &insn.b {
                put_operand(buf, b);
            }
            if let Some(a) = &insn.a {
                put_operand(buf, a);
            }
        }
        _ => {
            if let Some(a) = &insn.a {
                put_operand(buf, a);
            }
            if let Some(b) = &insn.b {
                put_operand(buf, b);
            }
        }
    }
    pad_word(buf, start, arch);
}

/// RISC targets use fixed 4-byte instruction words: pad each item.
fn pad_word(buf: &mut BytesMut, start: usize, arch: Arch) {
    if matches!(arch, Arch::Arm | Arch::Mips) {
        while !(buf.len() - start).is_multiple_of(4) {
            buf.put_u8(0x00);
        }
    }
}

/// Encode one function into `buf`.
///
/// `layout_index` maps block ids to their position in layout order, used to
/// compute relative branch displacements and elide fall-through jumps.
pub fn encode_function(buf: &mut BytesMut, f: &Function, arch: Arch) {
    for _ in 0..f.align_pad {
        put_insn(buf, &Insn::op0(Opcode::Nop), arch);
    }
    let pos_of = |id: crate::insn::BlockId| -> i16 {
        f.cfg
            .blocks
            .iter()
            .position(|b| b.id == id)
            .map(|p| p as i16)
            .unwrap_or(0)
    };
    for (idx, block) in f.cfg.blocks.iter().enumerate() {
        for insn in &block.insns {
            put_insn(buf, insn, arch);
        }
        let next_is =
            |id: crate::insn::BlockId| f.cfg.blocks.get(idx + 1).map(|b| b.id) == Some(id);
        let rel = |id: crate::insn::BlockId| pos_of(id) - idx as i16;
        let start = buf.len();
        match &block.term {
            Terminator::Jmp(t) => {
                if !next_is(*t) {
                    buf.put_u8(T_JMP);
                    buf.put_i16_le(rel(*t));
                }
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                // Prefer branching on the non-fallthrough side.
                if next_is(*then_bb) {
                    buf.put_u8(T_BR);
                    buf.put_u8(cond.negate().number());
                    buf.put_i16_le(rel(*else_bb));
                } else {
                    buf.put_u8(T_BR);
                    buf.put_u8(cond.number());
                    buf.put_i16_le(rel(*then_bb));
                    if !next_is(*else_bb) {
                        buf.put_u8(T_JMP);
                        buf.put_i16_le(rel(*else_bb));
                    }
                }
            }
            Terminator::JumpTable { index, targets } => {
                buf.put_u8(T_TABLE);
                buf.put_u8(index.number());
                buf.put_u16_le(targets.len() as u16);
                for t in targets {
                    buf.put_i16_le(rel(*t));
                }
            }
            Terminator::LoopBack { body, exit } => {
                buf.put_u8(T_LOOP);
                buf.put_i16_le(rel(*body));
                if !next_is(*exit) {
                    buf.put_u8(T_JMP);
                    buf.put_i16_le(rel(*exit));
                }
            }
            Terminator::Ret => buf.put_u8(T_RET),
            Terminator::TailCall(f) => {
                buf.put_u8(T_TAILCALL);
                buf.put_u16_le(f.0 as u16);
            }
        }
        pad_word(buf, start, arch);
    }
}

/// Encode the whole code section: all functions in layout order.
pub fn encode_binary(bin: &Binary) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(bin.insn_count() * 6 + 64);
    for f in &bin.functions {
        encode_function(&mut buf, f, bin.arch);
    }
    buf.to_vec()
}

/// A decoded code-stream item (see [`decode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// An ordinary instruction.
    Insn(Insn),
    /// `jmp` with a block-relative displacement.
    Jmp(i16),
    /// Conditional branch.
    Branch(Cond, i16),
    /// Jump table (index register, displacement list).
    Table(Gpr, Vec<i16>),
    /// `loop` back-edge.
    LoopBack(i16),
    /// Return.
    Ret,
    /// Tail call to a function id.
    TailCall(u16),
}

/// Errors from [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// Description of the malformed encoding.
    pub reason: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at {:#x}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for DecodeError {}

/// Decode a code section back into a stream of [`Item`]s.
///
/// # Errors
///
/// Returns [`DecodeError`] when the bytes are not a valid encoding for
/// `arch` (truncated stream, unknown opcode tag, malformed operand).
pub fn decode(bytes: &[u8], arch: Arch) -> Result<Vec<Item>, DecodeError> {
    let mut r = Cursor::new(bytes);
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let start = r.pos();
        let item = decode_item(&mut r, arch).map_err(|e| match e {
            // Whichever field ran out, the stream ran out at its end.
            CodecError::Truncated => DecodeError {
                offset: bytes.len(),
                reason: "unexpected end of code".into(),
            },
            e => DecodeError {
                offset: r.pos(),
                reason: e.to_string(),
            },
        })?;
        if matches!(arch, Arch::Arm | Arch::Mips) {
            // Skip the word-alignment pad (cut short at the end of code).
            while !(r.pos() - start).is_multiple_of(4) && r.u8().is_ok() {}
        }
        out.push(item);
    }
    Ok(out)
}

fn decode_item(r: &mut Cursor<'_>, arch: Arch) -> Result<Item, CodecError> {
    let mut tag = r.u8()?;
    if arch == Arch::X8664 && tag == PREFIX_EXT {
        tag = r.u8()?;
    }
    let i16 = |r: &mut Cursor<'_>| r.u16().map(|v| v as i16);
    Ok(match tag {
        T_JMP => Item::Jmp(i16(r)?),
        T_BR => Item::Branch(cond(r)?, i16(r)?),
        T_TABLE => {
            let index = gpr(r)?;
            let n = usize::from(r.u16()?);
            let targets = r
                .take(2 * n)?
                .chunks_exact(2)
                .map(|d| i16::from_le_bytes([d[0], d[1]]))
                .collect();
            Item::Table(index, targets)
        }
        T_LOOP => Item::LoopBack(i16(r)?),
        T_RET => Item::Ret,
        T_TAILCALL => Item::TailCall(r.u16()?),
        _ => {
            let raw = if arch == Arch::Mips {
                tag.wrapping_sub(0x80)
            } else {
                tag
            };
            if raw == PAD_BYTE {
                return Ok(Item::Insn(Insn::op0(Opcode::Nop)));
            }
            // Set/Cmov carry a condition byte.
            let cond = if raw == 0x26 || raw == 0x27 {
                Some(cond(r)?)
            } else {
                None
            };
            let op = tag_op(raw, cond).ok_or(CodecError::BadTag("opcode", tag))?;
            let (a, b) = match op.arity() {
                0 => (None, None),
                1 => (Some(operand(r)?), None),
                _ if arch == Arch::Mips => {
                    let b = operand(r)?;
                    (Some(operand(r)?), Some(b))
                }
                _ => (Some(operand(r)?), Some(operand(r)?)),
            };
            Item::Insn(Insn { op, a, b })
        }
    })
}

fn operand(r: &mut Cursor<'_>) -> Result<Operand, CodecError> {
    Ok(match r.u8()? {
        K_REG => Operand::Reg(gpr(r)?),
        K_VEC => {
            let n = r.u8()?;
            if n >= 8 {
                return Err(CodecError::BadTag("xmm", n));
            }
            Operand::Vec(Xmm(n))
        }
        K_IMM8 => Operand::Imm(r.u8()? as i8 as i64),
        K_IMM32 => Operand::Imm(r.u32()? as i32 as i64),
        K_MEM => {
            let mode = r.u8()?;
            let base = if mode & 0x80 != 0 {
                Some(gpr(r)?)
            } else {
                None
            };
            let index = if mode & 0x40 != 0 {
                Some(gpr(r)?)
            } else {
                None
            };
            let scale = 1u8 << ((mode >> 4) & 0x3);
            let disp = match mode & 0x3 {
                0 => 0,
                1 => r.u8()? as i8 as i32,
                2 => r.u32()? as i32,
                _ => return Err(CodecError::BadTag("disp size", mode)),
            };
            Operand::Mem(MemRef {
                base,
                index,
                scale,
                disp,
            })
        }
        other => return Err(CodecError::BadTag("operand kind", other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Block, Terminator};
    use crate::insn::{BlockId, FuncId};
    use crate::program::Function;

    fn sample_insns() -> Vec<Insn> {
        vec![
            Insn::op2(Opcode::Mov, Gpr::Eax, 5i64),
            Insn::op2(Opcode::Add, Gpr::Eax, Gpr::Ebx),
            Insn::op2(Opcode::Mov, MemRef::base_disp(Gpr::Ebp, -8), Gpr::Eax),
            Insn::op2(
                Opcode::Lea,
                Gpr::Ecx,
                MemRef::indexed(Some(Gpr::Edx), Gpr::Esi, 4, 0x1234),
            ),
            Insn::op1(Opcode::Set(Cond::Ge), Gpr::Eax),
            Insn::op2(Opcode::Cmov(Cond::B), Gpr::Eax, Gpr::Edi),
            Insn::op2(Opcode::Vload, Xmm(1), MemRef::base_only(Gpr::Esi)),
            Insn::op2(Opcode::Vmul, Xmm(1), Xmm(2)),
            Insn::op1(Opcode::Push, Gpr::Ebp),
            Insn::call(FuncId(7)),
            Insn::op0(Opcode::Nop),
        ]
    }

    fn roundtrip(arch: Arch) {
        let mut f = Function::new(FuncId(0), "t", 0);
        let cfg = &mut f.cfg;
        cfg.block_mut(BlockId(0)).insns = sample_insns();
        let b1 = cfg.fresh_id();
        cfg.block_mut(BlockId(0)).term = Terminator::Branch {
            cond: Cond::L,
            then_bb: b1,
            else_bb: BlockId(0),
        };
        cfg.push(Block::new(b1, vec![], Terminator::Ret));
        let mut buf = BytesMut::new();
        encode_function(&mut buf, &f, arch);
        let items = decode(&buf, arch).unwrap();
        let insns: Vec<&Insn> = items
            .iter()
            .filter_map(|i| match i {
                Item::Insn(i) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(insns.len(), sample_insns().len());
        for (got, want) in insns.iter().zip(sample_insns().iter()) {
            assert_eq!(*got, want, "arch {arch:?}");
        }
        assert!(items.iter().any(|i| matches!(i, Item::Ret)));
        assert!(items.iter().any(|i| matches!(i, Item::Branch(..))));
    }

    #[test]
    fn round_trip_all_arches() {
        for arch in Arch::ALL {
            roundtrip(arch);
        }
    }

    #[test]
    fn fallthrough_jump_is_elided() {
        // bb0 -> jmp bb1 where bb1 is next in layout: no T_JMP byte emitted.
        let mut f = Function::new(FuncId(0), "t", 0);
        let b1 = f.cfg.fresh_id();
        f.cfg.block_mut(BlockId(0)).term = Terminator::Jmp(b1);
        f.cfg.push(Block::new(b1, vec![], Terminator::Ret));
        let mut buf = BytesMut::new();
        encode_function(&mut buf, &f, Arch::X86);
        assert_eq!(buf.to_vec(), vec![T_RET]);

        // Reorder the blocks: now the jump must materialize.
        f.cfg.blocks.swap(0, 1);
        let mut buf2 = BytesMut::new();
        encode_function(&mut buf2, &f, Arch::X86);
        assert!(buf2.len() > buf.len());
    }

    #[test]
    fn risc_encodings_are_word_aligned() {
        for arch in [Arch::Arm, Arch::Mips] {
            let mut f = Function::new(FuncId(0), "t", 0);
            f.cfg.block_mut(BlockId(0)).insns = sample_insns();
            let mut buf = BytesMut::new();
            encode_function(&mut buf, &f, arch);
            assert_eq!(buf.len() % 4, 0, "{arch:?}");
        }
    }

    #[test]
    fn arch_encodings_differ() {
        let mut f = Function::new(FuncId(0), "t", 0);
        f.cfg.block_mut(BlockId(0)).insns = sample_insns();
        let enc: Vec<Vec<u8>> = Arch::ALL
            .iter()
            .map(|&a| {
                let mut buf = BytesMut::new();
                let mut f = f.clone();
                f.cfg
                    .block_mut(BlockId(0))
                    .insns
                    .push(Insn::op2(Opcode::Add, Gpr::R8, Gpr::R9));
                encode_function(&mut buf, &f, a);
                buf.to_vec()
            })
            .collect();
        for i in 0..enc.len() {
            for j in i + 1..enc.len() {
                assert_ne!(enc[i], enc[j], "arch {i} vs {j}");
            }
        }
    }

    #[test]
    fn short_immediates_encode_smaller() {
        let small = Insn::op2(Opcode::Mov, Gpr::Eax, 5i64);
        let large = Insn::op2(Opcode::Mov, Gpr::Eax, 0x12345678i64);
        let mut b1 = BytesMut::new();
        let mut b2 = BytesMut::new();
        put_insn(&mut b1, &small, Arch::X86);
        put_insn(&mut b2, &large, Arch::X86);
        assert!(b1.len() < b2.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[0xff, 0x00], Arch::X86).is_err());
        assert!(decode(&[0x12], Arch::X86).is_err()); // truncated add
    }
}
