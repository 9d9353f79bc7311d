//! # binrep — binary code representation for the BinTuner reproduction
//!
//! This crate is the machine-level substrate shared by every other crate in
//! the workspace: a small x86-flavoured instruction set ([`insn`]),
//! structured basic blocks and control flow graphs ([`mod@cfg`]), whole-binary
//! images with data sections and import tables ([`program`]), deterministic
//! byte encoders/decoders for four target architectures ([`encode`]), and
//! descriptive code statistics ([`stats`]). Its [`Cursor`] is the one
//! bounds-checked reader every decoder of outside bytes in the workspace
//! goes through ([`cursor`]).
//!
//! The design goal is fidelity to the properties the paper's study depends
//! on, not to real x86: optimization passes in `minicc` transform these
//! structures, `emu` executes them, `binhunt`/`difftools` compare them, and
//! `lzc` compresses their encoded bytes for the NCD fitness function.
//!
//! ## Example
//!
//! ```
//! use binrep::{Arch, Binary, Block, BlockId, Cond, FuncId, Function, Gpr, Insn, Opcode, Terminator};
//!
//! // Build `int max(a, b) { return a > b ? a : b; }` by hand.
//! let mut f = Function::new(FuncId(0), "max", 2);
//! let then_bb = f.cfg.fresh_id();
//! let join = f.cfg.fresh_id();
//! let entry = f.cfg.block_mut(BlockId(0));
//! entry.insns.push(Insn::op2(Opcode::Mov, Gpr::Eax, Gpr::Edx)); // eax = b
//! entry.insns.push(Insn::op2(Opcode::Cmp, Gpr::Ecx, Gpr::Edx));
//! entry.term = Terminator::Branch { cond: Cond::G, then_bb, else_bb: join };
//! f.cfg.push(Block::new(
//!     then_bb,
//!     vec![Insn::op2(Opcode::Mov, Gpr::Eax, Gpr::Ecx)],
//!     Terminator::Jmp(join),
//! ));
//! f.cfg.push(Block::new(join, vec![], Terminator::Ret));
//!
//! let mut bin = Binary::new("example", Arch::X86);
//! bin.functions.push(f);
//! bin.validate().unwrap();
//! let code = binrep::encode_binary(&bin);
//! assert!(!code.is_empty());
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod codec;
pub mod cursor;
pub mod encode;
pub mod insn;
pub mod program;
pub mod reg;
pub mod stats;

pub use cfg::{Block, Cfg, Terminator};
pub use cursor::{CodecError, Cursor};
pub use encode::{decode, encode_binary, encode_function, DecodeError, Item};
pub use insn::{BlockId, Cond, FuncId, ImportId, Insn, MemRef, Opcode, Operand};
pub use program::{Arch, Binary, Function, Import, DATA_BASE, HEAP_BASE, STACK_TOP};
pub use reg::{Gpr, Xmm};
pub use stats::{byte_ngrams, function_features, opcode_histogram, FunctionFeatures};
