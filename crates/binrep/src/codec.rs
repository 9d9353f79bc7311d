//! Lossless canonical serialization of [`Binary`] images.
//!
//! [`crate::encode`] is the *lossy* byte encoding the NCD fitness
//! function compresses — it elides fall-through jumps and forgets block
//! ids, so it cannot reconstruct the structured program. This module is
//! the other direction: a reversible codec so a compiled binary can be
//! persisted (the artifact store in `bintuner::store`) and shipped
//! across processes, bit-exactly.
//!
//! Mirrors `minicc::codec` in shape and discipline: a fixed magic,
//! little-endian integers, declaration-order enum tags that must never
//! be renumbered, defensive decoding through [`Cursor`] (forged lengths,
//! truncation and bad tags are typed errors, never panics or huge
//! pre-allocations), and a trailing-bytes check so concatenated payloads
//! cannot alias.

use crate::cfg::{Block, Cfg, Terminator};
pub use crate::cursor::CodecError;
use crate::cursor::Cursor;
use crate::insn::{BlockId, Cond, FuncId, ImportId, Insn, MemRef, Opcode, Operand};
use crate::program::{Arch, Binary, Function, Import};
use crate::reg::{Gpr, Xmm};

/// Format magic: "BRC" + version byte. Bump the version byte on any
/// layout change so stale artifact payloads decode to a typed error.
pub const MAGIC: [u8; 4] = *b"BRC\x01";

/// Serialize a binary to its canonical byte form.
pub fn encode_binary(b: &Binary) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&MAGIC);
    put_str(&mut out, &b.name);
    out.push(b.arch.tag());
    out.extend_from_slice(&b.entry.0.to_le_bytes());
    put_len(&mut out, b.functions.len());
    for f in &b.functions {
        put_func(&mut out, f);
    }
    put_len(&mut out, b.data.len());
    for w in &b.data {
        out.extend_from_slice(&w.to_le_bytes());
    }
    put_len(&mut out, b.imports.len());
    for imp in &b.imports {
        out.extend_from_slice(&imp.id.0.to_le_bytes());
        put_str(&mut out, &imp.name);
    }
    out
}

/// Inverse of [`encode_binary`]. The whole input must be consumed.
pub fn decode_binary(bytes: &[u8]) -> Result<Binary, CodecError> {
    let mut r = Cursor::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let name = r.string()?;
    let tag = r.u8()?;
    let arch = Arch::from_tag(tag).ok_or(CodecError::BadTag("arch", tag))?;
    let entry = FuncId(r.u32()?);
    let functions = r.seq(func)?;
    let data = r.seq(Cursor::u32)?;
    let imports = r.seq(|r| {
        Ok(Import {
            id: ImportId(r.u16()?),
            name: r.string()?,
        })
    })?;
    r.finish()?;
    Ok(Binary {
        name,
        arch,
        functions,
        entry,
        data,
        imports,
    })
}

/// Stable one-byte opcode tag. Exhaustive match: adding an `Opcode`
/// variant without assigning a tag here is a compile error, and the
/// assignments must never be reordered or reused (they are persisted).
/// `Set`/`Cmov` carry their condition as a following byte.
fn opcode_tag(op: Opcode) -> u8 {
    match op {
        Opcode::Mov => 0,
        Opcode::Lea => 1,
        Opcode::Add => 2,
        Opcode::Sub => 3,
        Opcode::Sbb => 4,
        Opcode::Adc => 5,
        Opcode::Imul => 6,
        Opcode::Udiv => 7,
        Opcode::Urem => 8,
        Opcode::Umulh => 9,
        Opcode::And => 10,
        Opcode::Or => 11,
        Opcode::Xor => 12,
        Opcode::Not => 13,
        Opcode::Neg => 14,
        Opcode::Inc => 15,
        Opcode::Dec => 16,
        Opcode::Shl => 17,
        Opcode::Shr => 18,
        Opcode::Sar => 19,
        Opcode::Cmp => 20,
        Opcode::Test => 21,
        Opcode::Set(_) => 22,
        Opcode::Cmov(_) => 23,
        Opcode::Push => 24,
        Opcode::Pop => 25,
        Opcode::Call => 26,
        Opcode::CallImport => 27,
        Opcode::Vload => 28,
        Opcode::Vstore => 29,
        Opcode::Vadd => 30,
        Opcode::Vsub => 31,
        Opcode::Vmul => 32,
        Opcode::Vhsum => 33,
        Opcode::Nop => 34,
    }
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_func(out: &mut Vec<u8>, f: &Function) {
    out.extend_from_slice(&f.id.0.to_le_bytes());
    put_str(out, &f.name);
    put_len(out, f.params);
    out.push(f.is_library as u8);
    out.push(f.align_pad);
    out.extend_from_slice(&f.cfg.entry.0.to_le_bytes());
    out.extend_from_slice(&f.cfg.next_id().to_le_bytes());
    put_len(out, f.cfg.blocks.len());
    for b in &f.cfg.blocks {
        put_block(out, b);
    }
}

fn put_block(out: &mut Vec<u8>, b: &Block) {
    out.extend_from_slice(&b.id.0.to_le_bytes());
    put_len(out, b.insns.len());
    for i in &b.insns {
        put_insn(out, i);
    }
    put_term(out, &b.term);
}

fn put_insn(out: &mut Vec<u8>, i: &Insn) {
    out.push(opcode_tag(i.op));
    match i.op {
        Opcode::Set(c) | Opcode::Cmov(c) => out.push(c.number()),
        _ => {}
    }
    put_operand_opt(out, &i.a);
    put_operand_opt(out, &i.b);
}

fn put_operand_opt(out: &mut Vec<u8>, o: &Option<Operand>) {
    match o {
        None => out.push(0),
        Some(Operand::Reg(r)) => {
            out.push(1);
            out.push(r.number());
        }
        Some(Operand::Vec(x)) => {
            out.push(2);
            out.push(x.0);
        }
        Some(Operand::Imm(v)) => {
            out.push(3);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Some(Operand::Mem(m)) => {
            out.push(4);
            put_gpr_opt(out, m.base);
            put_gpr_opt(out, m.index);
            out.push(m.scale);
            out.extend_from_slice(&m.disp.to_le_bytes());
        }
    }
}

fn put_gpr_opt(out: &mut Vec<u8>, r: Option<Gpr>) {
    match r {
        None => out.push(0xff),
        Some(r) => out.push(r.number()),
    }
}

fn put_term(out: &mut Vec<u8>, t: &Terminator) {
    match t {
        Terminator::Jmp(bb) => {
            out.push(0);
            out.extend_from_slice(&bb.0.to_le_bytes());
        }
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            out.push(1);
            out.push(cond.number());
            out.extend_from_slice(&then_bb.0.to_le_bytes());
            out.extend_from_slice(&else_bb.0.to_le_bytes());
        }
        Terminator::JumpTable { index, targets } => {
            out.push(2);
            out.push(index.number());
            put_len(out, targets.len());
            for t in targets {
                out.extend_from_slice(&t.0.to_le_bytes());
            }
        }
        Terminator::LoopBack { body, exit } => {
            out.push(3);
            out.extend_from_slice(&body.0.to_le_bytes());
            out.extend_from_slice(&exit.0.to_le_bytes());
        }
        Terminator::Ret => out.push(4),
        Terminator::TailCall(f) => {
            out.push(5);
            out.extend_from_slice(&f.0.to_le_bytes());
        }
    }
}

pub(crate) fn cond(r: &mut Cursor<'_>) -> Result<Cond, CodecError> {
    let t = r.u8()?;
    Cond::from_number(t).ok_or(CodecError::BadTag("cond", t))
}

pub(crate) fn gpr(r: &mut Cursor<'_>) -> Result<Gpr, CodecError> {
    let t = r.u8()?;
    Gpr::from_number(t).ok_or(CodecError::BadTag("gpr", t))
}

fn gpr_opt(r: &mut Cursor<'_>) -> Result<Option<Gpr>, CodecError> {
    match r.u8()? {
        0xff => Ok(None),
        t => Gpr::from_number(t)
            .map(Some)
            .ok_or(CodecError::BadTag("gpr", t)),
    }
}

fn func(r: &mut Cursor<'_>) -> Result<Function, CodecError> {
    let id = FuncId(r.u32()?);
    let name = r.string()?;
    // A plain number, not a count of encoded elements.
    let params = r.u32()? as usize;
    let is_library = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(CodecError::BadTag("bool", t)),
    };
    let align_pad = r.u8()?;
    let entry = BlockId(r.u32()?);
    let next_id = r.u32()?;
    let blocks = r.seq(|r| {
        let b = block(r)?;
        if b.id.0 >= next_id {
            return Err(CodecError::BadTag("block-id-watermark", 0));
        }
        Ok(b)
    })?;
    let mut f = Function::new(id, name, params);
    f.is_library = is_library;
    f.align_pad = align_pad;
    f.cfg = Cfg::from_raw_parts(blocks, entry, next_id);
    Ok(f)
}

fn block(r: &mut Cursor<'_>) -> Result<Block, CodecError> {
    let id = BlockId(r.u32()?);
    let insns = r.seq(insn)?;
    let term = term(r)?;
    Ok(Block { id, insns, term })
}

fn insn(r: &mut Cursor<'_>) -> Result<Insn, CodecError> {
    const PLAIN: [Opcode; 35] = [
        Opcode::Mov,
        Opcode::Lea,
        Opcode::Add,
        Opcode::Sub,
        Opcode::Sbb,
        Opcode::Adc,
        Opcode::Imul,
        Opcode::Udiv,
        Opcode::Urem,
        Opcode::Umulh,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Not,
        Opcode::Neg,
        Opcode::Inc,
        Opcode::Dec,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::Sar,
        Opcode::Cmp,
        Opcode::Test,
        Opcode::Set(Cond::E),  // placeholder, cond read below
        Opcode::Cmov(Cond::E), // placeholder, cond read below
        Opcode::Push,
        Opcode::Pop,
        Opcode::Call,
        Opcode::CallImport,
        Opcode::Vload,
        Opcode::Vstore,
        Opcode::Vadd,
        Opcode::Vsub,
        Opcode::Vmul,
        Opcode::Vhsum,
        Opcode::Nop,
    ];
    let t = r.u8()?;
    let op = match *PLAIN
        .get(t as usize)
        .ok_or(CodecError::BadTag("opcode", t))?
    {
        Opcode::Set(_) => Opcode::Set(cond(r)?),
        Opcode::Cmov(_) => Opcode::Cmov(cond(r)?),
        plain => plain,
    };
    let a = operand_opt(r)?;
    let b = operand_opt(r)?;
    Ok(Insn { op, a, b })
}

fn operand_opt(r: &mut Cursor<'_>) -> Result<Option<Operand>, CodecError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(Operand::Reg(gpr(r)?)),
        2 => {
            let n = r.u8()?;
            if n >= 8 {
                return Err(CodecError::BadTag("xmm", n));
            }
            Some(Operand::Vec(Xmm(n)))
        }
        3 => Some(Operand::Imm(r.u64()? as i64)),
        4 => {
            let base = gpr_opt(r)?;
            let index = gpr_opt(r)?;
            let scale = r.u8()?;
            let disp = r.u32()? as i32;
            Some(Operand::Mem(MemRef {
                base,
                index,
                scale,
                disp,
            }))
        }
        t => return Err(CodecError::BadTag("operand", t)),
    })
}

fn term(r: &mut Cursor<'_>) -> Result<Terminator, CodecError> {
    Ok(match r.u8()? {
        0 => Terminator::Jmp(BlockId(r.u32()?)),
        1 => Terminator::Branch {
            cond: cond(r)?,
            then_bb: BlockId(r.u32()?),
            else_bb: BlockId(r.u32()?),
        },
        2 => Terminator::JumpTable {
            index: gpr(r)?,
            targets: r.seq(|r| Ok(BlockId(r.u32()?)))?,
        },
        3 => Terminator::LoopBack {
            body: BlockId(r.u32()?),
            exit: BlockId(r.u32()?),
        },
        4 => Terminator::Ret,
        5 => Terminator::TailCall(FuncId(r.u32()?)),
        t => return Err(CodecError::BadTag("terminator", t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::DATA_BASE;

    /// A binary exercising every operand shape, both cond-carrying
    /// opcodes, and every terminator variant.
    fn kitchen_sink() -> Binary {
        let mut bin = Binary::new("sink", Arch::X8664);
        let s = bin.add_string("hello");
        let _ = bin.add_data_word(7, true);
        let strcpy = bin.import_by_name("strcpy");

        let mut f = Function::new(FuncId(0), "main", 2);
        f.align_pad = 3;
        let b1 = f.cfg.fresh_id();
        let b2 = f.cfg.fresh_id();
        let b3 = f.cfg.fresh_id();
        let b4 = f.cfg.fresh_id();
        let entry = f.cfg.block_mut(BlockId(0));
        entry.insns.push(Insn::op2(Opcode::Mov, Gpr::Eax, 42i64));
        entry
            .insns
            .push(Insn::op2(Opcode::Lea, Gpr::Esi, MemRef::abs(s as i32)));
        entry.insns.push(Insn::op2(
            Opcode::Add,
            Gpr::R9,
            MemRef::indexed(Some(Gpr::Ebp), Gpr::Ecx, 4, -12),
        ));
        entry.insns.push(Insn::op2(
            Opcode::Vload,
            Xmm(3),
            MemRef::base_disp(Gpr::Esp, DATA_BASE as i32),
        ));
        entry.insns.push(Insn::op1(Opcode::Set(Cond::Le), Gpr::Edx));
        entry
            .insns
            .push(Insn::op2(Opcode::Cmov(Cond::A), Gpr::Eax, Gpr::Ebx));
        entry.insns.push(Insn::call_import(strcpy));
        entry.insns.push(Insn::op0(Opcode::Nop));
        entry.term = Terminator::Branch {
            cond: Cond::Ne,
            then_bb: b1,
            else_bb: b2,
        };
        f.cfg.push(Block::new(
            b1,
            vec![],
            Terminator::JumpTable {
                index: Gpr::Ecx,
                targets: vec![b2, b3, b2],
            },
        ));
        f.cfg.push(Block::new(
            b2,
            vec![],
            Terminator::LoopBack { body: b2, exit: b3 },
        ));
        f.cfg.push(Block::new(b3, vec![], Terminator::Jmp(b4)));
        f.cfg
            .push(Block::new(b4, vec![], Terminator::TailCall(FuncId(1))));
        bin.functions.push(f);

        let mut lib = Function::new(FuncId(1), "helper", 0);
        lib.is_library = true;
        bin.functions.push(lib);
        bin
    }

    #[test]
    fn kitchen_sink_round_trips() {
        let bin = kitchen_sink();
        let bytes = encode_binary(&bin);
        let back = decode_binary(&bytes).expect("decode");
        assert_eq!(back, bin);
        // next_id survives: fresh ids allocated after decode don't
        // collide with existing blocks.
        let mut back = back;
        let fresh = back.functions[0].cfg.fresh_id();
        assert!(!back.functions[0].cfg.contains(fresh));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = encode_binary(&kitchen_sink());
        for cut in 0..bytes.len() {
            match decode_binary(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("prefix of {cut} bytes decoded cleanly"),
            }
        }
    }

    #[test]
    fn garbage_and_trailing_bytes_are_rejected() {
        assert_eq!(decode_binary(b"nope"), Err(CodecError::BadMagic));
        assert_eq!(decode_binary(&[]), Err(CodecError::Truncated));
        let mut bytes = encode_binary(&kitchen_sink());
        bytes.push(0);
        assert_eq!(decode_binary(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn corrupt_tags_never_panic() {
        let clean = encode_binary(&kitchen_sink());
        for at in 0..clean.len() {
            let mut bad = clean.clone();
            bad[at] ^= 0x5a;
            let _ = decode_binary(&bad); // any Result is fine; no panic
        }
    }
}
