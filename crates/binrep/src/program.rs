//! Whole-binary representation: functions, data section, imports, symbols.

use crate::cfg::Cfg;
use crate::insn::{FuncId, ImportId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Base virtual address of the data section.
pub const DATA_BASE: i64 = 0x1000_0000;
/// Base virtual address of the emulated heap.
pub const HEAP_BASE: i64 = 0x2000_0000;
/// Initial stack pointer of the emulator.
pub const STACK_TOP: i64 = 0x7fff_0000;

/// Target architecture — selects the byte encoder.
///
/// The four targets mirror the paper's Table 2 (x86-32, x86-64, ARM, MIPS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// 32-bit x86-like variable-length encoding.
    X86,
    /// 64-bit variant (adds a prefix byte for extended registers).
    X8664,
    /// Fixed 4-byte word RISC encoding.
    Arm,
    /// Fixed 4-byte word RISC encoding with different field layout.
    Mips,
}

impl Arch {
    /// All supported architectures.
    pub const ALL: [Arch; 4] = [Arch::X86, Arch::X8664, Arch::Arm, Arch::Mips];

    /// Stable one-byte tag. Every persisted byte that names an
    /// architecture carries it (this crate's binary codec, and the
    /// tuner's store and artifact keys), so the assignments must never
    /// be reordered or reused.
    #[inline]
    pub fn tag(self) -> u8 {
        match self {
            Arch::X86 => 0,
            Arch::X8664 => 1,
            Arch::Arm => 2,
            Arch::Mips => 3,
        }
    }

    /// Inverse of [`Arch::tag`]; `None` for an unassigned tag.
    pub fn from_tag(tag: u8) -> Option<Arch> {
        Arch::ALL.into_iter().find(|a| a.tag() == tag)
    }

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Arch::X86 => "x86-32",
            Arch::X8664 => "x86-64",
            Arch::Arm => "ARM",
            Arch::Mips => "MIPS",
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A function in a binary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Function {
    /// Stable id used by `call` instructions.
    pub id: FuncId,
    /// Symbol name. Ground-truth matching across optimization settings keys
    /// on this name, mirroring how the paper's Precision@1 experiments use
    /// debug symbols for ground truth.
    pub name: String,
    /// Number of parameters (passed in `ecx`, `edx`, `esi`, `edi`).
    pub params: usize,
    /// Body.
    pub cfg: Cfg,
    /// Whether this function came from a (statically linked) library rather
    /// than the program itself. BinHunt's metrics separate the two.
    pub is_library: bool,
    /// Alignment padding (bytes of `nop`) inserted before the function when
    /// `-falign-functions` is active.
    pub align_pad: u8,
}

impl Function {
    /// A function with an empty body.
    pub fn new(id: FuncId, name: impl Into<String>, params: usize) -> Function {
        Function {
            id,
            name: name.into(),
            params,
            cfg: Cfg::new(),
            is_library: false,
            align_pad: 0,
        }
    }
}

/// Named import table entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Import {
    /// Id referenced by `call@import` instructions.
    pub id: ImportId,
    /// Name, e.g. `"strcpy"`.
    pub name: String,
}

/// A whole binary: functions in layout order plus data and imports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Binary {
    /// Binary name (benchmark name, e.g. `"462.libquantum"`).
    pub name: String,
    /// Target architecture.
    pub arch: Arch,
    /// Functions in **layout order** (the order they are encoded).
    pub functions: Vec<Function>,
    /// Entry function id (`main`).
    pub entry: FuncId,
    /// Raw data section contents (32-bit words, little-endian semantics).
    pub data: Vec<u32>,
    /// Import table.
    pub imports: Vec<Import>,
}

impl Binary {
    /// An empty binary for the given architecture.
    pub fn new(name: impl Into<String>, arch: Arch) -> Binary {
        Binary {
            name: name.into(),
            arch,
            functions: Vec::new(),
            entry: FuncId(0),
            data: Vec::new(),
            imports: Vec::new(),
        }
    }

    /// Look up a function by id.
    pub fn function(&self, id: FuncId) -> &Function {
        self.functions
            .iter()
            .find(|f| f.id == id)
            .unwrap_or_else(|| panic!("no function {id}"))
    }

    /// Mutable access to a function by id.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        self.functions
            .iter_mut()
            .find(|f| f.id == id)
            .unwrap_or_else(|| panic!("no function {id}"))
    }

    /// Whether a function with this id exists.
    pub fn contains_function(&self, id: FuncId) -> bool {
        self.functions.iter().any(|f| f.id == id)
    }

    /// Look up a function by symbol name.
    pub fn function_by_name(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Intern a word of constant data, returning its byte address.
    ///
    /// With `dedup` (the `-fmerge-all-constants` behaviour) identical words
    /// share storage.
    pub fn add_data_word(&mut self, word: u32, dedup: bool) -> i64 {
        if dedup {
            if let Some(pos) = self.data.iter().position(|&w| w == word) {
                return DATA_BASE + (pos as i64) * 4;
            }
        }
        self.data.push(word);
        DATA_BASE + (self.data.len() as i64 - 1) * 4
    }

    /// Intern a string (NUL-terminated, packed into words), returning its
    /// byte address.
    pub fn add_string(&mut self, s: &str) -> i64 {
        let mut bytes: Vec<u8> = s.bytes().collect();
        bytes.push(0);
        while !bytes.len().is_multiple_of(4) {
            bytes.push(0);
        }
        let addr = DATA_BASE + (self.data.len() as i64) * 4;
        for chunk in bytes.chunks(4) {
            self.data
                .push(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        addr
    }

    /// Register an import by name, returning its id (idempotent).
    pub fn import_by_name(&mut self, name: &str) -> ImportId {
        if let Some(i) = self.imports.iter().find(|i| i.name == name) {
            return i.id;
        }
        let id = ImportId(self.imports.len() as u16);
        self.imports.push(Import {
            id,
            name: name.to_string(),
        });
        id
    }

    /// Name of an import id.
    pub fn import_name(&self, id: ImportId) -> &str {
        &self
            .imports
            .iter()
            .find(|i| i.id == id)
            .unwrap_or_else(|| panic!("no import {}", id.0))
            .name
    }

    /// The static call graph: caller id → callee ids (deduplicated, sorted).
    pub fn call_graph(&self) -> BTreeMap<FuncId, Vec<FuncId>> {
        let mut cg: BTreeMap<FuncId, Vec<FuncId>> = BTreeMap::new();
        for f in &self.functions {
            let mut callees: Vec<FuncId> = f
                .cfg
                .blocks
                .iter()
                .flat_map(|b| b.insns.iter())
                .filter_map(|i| i.callee())
                .collect();
            callees.sort();
            callees.dedup();
            cg.insert(f.id, callees);
        }
        cg
    }

    /// Set of import names referenced anywhere in the code (used by the AV
    /// scanner's API-signature matching).
    pub fn referenced_imports(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .functions
            .iter()
            .flat_map(|f| f.cfg.blocks.iter())
            .flat_map(|b| b.insns.iter())
            .filter_map(|i| i.import())
            .map(|id| self.import_name(id).to_string())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Total instruction count across all functions.
    pub fn insn_count(&self) -> usize {
        self.functions.iter().map(|f| f.cfg.insn_count()).sum()
    }

    /// Total basic-block count.
    pub fn block_count(&self) -> usize {
        self.functions.iter().map(|f| f.cfg.len()).sum()
    }

    /// Validate all function CFGs and cross-function references.
    pub fn validate(&self) -> Result<(), String> {
        if !self.contains_function(self.entry) {
            return Err(format!("entry {} missing", self.entry));
        }
        let mut seen = std::collections::BTreeSet::new();
        for f in &self.functions {
            if !seen.insert(f.id) {
                return Err(format!("duplicate function id {}", f.id));
            }
            f.cfg
                .validate()
                .map_err(|e| format!("{} ({}): {e}", f.name, f.id))?;
            for b in &f.cfg.blocks {
                if let crate::cfg::Terminator::TailCall(t) = &b.term {
                    if !self.contains_function(*t) {
                        return Err(format!("{}: tail call to missing {}", f.name, t));
                    }
                }
                for i in &b.insns {
                    if let Some(callee) = i.callee() {
                        if !self.contains_function(callee) {
                            return Err(format!("{}: call to missing {}", f.name, callee));
                        }
                    }
                    if let Some(imp) = i.import() {
                        if (imp.0 as usize) >= self.imports.len() {
                            return Err(format!("{}: missing import {}", f.name, imp.0));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;

    #[test]
    fn arch_tags_are_pinned_and_invert() {
        // Persisted bytes: the codec and the tuner's store keys carry
        // these tags.
        assert_eq!(Arch::ALL.map(Arch::tag), [0, 1, 2, 3]);
        for arch in Arch::ALL {
            assert_eq!(Arch::from_tag(arch.tag()), Some(arch));
        }
        assert_eq!(Arch::from_tag(4), None);
        assert_eq!(Arch::from_tag(9), None);
    }

    #[test]
    fn data_interning_dedups_when_asked() {
        let mut b = Binary::new("t", Arch::X86);
        let a1 = b.add_data_word(42, true);
        let a2 = b.add_data_word(42, true);
        let a3 = b.add_data_word(42, false);
        assert_eq!(a1, a2);
        assert_ne!(a1, a3);
        assert_eq!(b.data.len(), 2);
    }

    #[test]
    fn strings_are_nul_terminated_and_word_padded() {
        let mut b = Binary::new("t", Arch::X86);
        let addr = b.add_string("Hello World!");
        assert_eq!(addr, DATA_BASE);
        // 12 chars + NUL, padded to 16 bytes = 4 words.
        assert_eq!(b.data.len(), 4);
        assert_eq!(b.data[0], u32::from_le_bytes(*b"Hell"));
    }

    #[test]
    fn imports_are_idempotent() {
        let mut b = Binary::new("t", Arch::X86);
        let a = b.import_by_name("strcpy");
        let a2 = b.import_by_name("strcpy");
        let c = b.import_by_name("socket");
        assert_eq!(a, a2);
        assert_ne!(a, c);
        assert_eq!(b.import_name(c), "socket");
    }

    #[test]
    fn call_graph_and_validation() {
        let mut b = Binary::new("t", Arch::X86);
        let mut f0 = Function::new(FuncId(0), "main", 0);
        f0.cfg
            .block_mut(crate::insn::BlockId(0))
            .insns
            .push(Insn::call(FuncId(1)));
        b.functions.push(f0);
        b.functions.push(Function::new(FuncId(1), "helper", 1));
        b.entry = FuncId(0);
        b.validate().unwrap();
        let cg = b.call_graph();
        assert_eq!(cg[&FuncId(0)], vec![FuncId(1)]);
        assert!(cg[&FuncId(1)].is_empty());

        // Dangling call must be rejected.
        b.function_mut(FuncId(1))
            .cfg
            .block_mut(crate::insn::BlockId(0))
            .insns
            .push(Insn::call(FuncId(9)));
        assert!(b.validate().is_err());
    }
}
