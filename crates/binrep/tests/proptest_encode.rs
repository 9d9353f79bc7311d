//! Property tests: arbitrary instruction streams survive the
//! encode → decode round trip on every architecture, and mutated
//! encodings — of binaries and of instruction streams — decode or fail
//! typed, never panic.

use binrep::codec::{decode_binary, encode_binary};
use binrep::{
    Arch, Binary, Block, BlockId, Cond, FuncId, Function, Gpr, Insn, Item, MemRef, Opcode,
    Terminator, Xmm,
};
use proptest::prelude::*;

fn arb_gpr() -> impl Strategy<Value = Gpr> {
    (0u8..16).prop_map(|n| Gpr::from_number(n).unwrap())
}

fn arb_mem() -> impl Strategy<Value = MemRef> {
    (
        proptest::option::of(arb_gpr()),
        proptest::option::of(arb_gpr()),
        prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
        any::<i32>(),
    )
        .prop_map(|(base, index, scale, disp)| MemRef {
            base,
            index,
            scale,
            disp,
        })
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    (0u8..10).prop_map(|n| Cond::from_number(n).unwrap())
}

fn arb_insn() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (arb_gpr(), arb_gpr()).prop_map(|(a, b)| Insn::op2(Opcode::Mov, a, b)),
        (arb_gpr(), any::<i32>()).prop_map(|(a, v)| Insn::op2(Opcode::Add, a, v as i64)),
        (arb_gpr(), arb_mem()).prop_map(|(a, m)| Insn::op2(Opcode::Sub, a, m)),
        (arb_mem(), arb_gpr()).prop_map(|(m, b)| Insn::op2(Opcode::Mov, m, b)),
        (arb_gpr(), arb_mem()).prop_map(|(a, m)| Insn::op2(Opcode::Lea, a, m)),
        arb_gpr().prop_map(|a| Insn::op1(Opcode::Not, a)),
        arb_gpr().prop_map(|a| Insn::op1(Opcode::Push, a)),
        (arb_cond(), arb_gpr()).prop_map(|(c, a)| Insn::op1(Opcode::Set(c), a)),
        (arb_cond(), arb_gpr(), arb_gpr()).prop_map(|(c, a, b)| Insn::op2(Opcode::Cmov(c), a, b)),
        (0u8..8, arb_mem()).prop_map(|(x, m)| Insn::op2(Opcode::Vload, Xmm(x), m)),
        (0u16..999).prop_map(|f| Insn::call(FuncId(f as u32))),
        Just(Insn::op0(Opcode::Nop)),
        (arb_gpr(), arb_gpr()).prop_map(|(a, b)| Insn::op2(Opcode::Umulh, a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_round_trip_all_arches(insns in proptest::collection::vec(arb_insn(), 0..40)) {
        for arch in Arch::ALL {
            let mut f = Function::new(FuncId(0), "f", 0);
            f.cfg.block_mut(BlockId(0)).insns = insns.clone();
            let mut buf = bytes::BytesMut::new();
            binrep::encode_function(&mut buf, &f, arch);
            let items = binrep::decode(&buf, arch)
                .unwrap_or_else(|e| panic!("{arch:?}: {e}"));
            let decoded: Vec<Insn> = items
                .into_iter()
                .filter_map(|i| match i {
                    Item::Insn(i) => Some(i),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(&decoded, &insns, "{:?}", arch);
        }
    }

    #[test]
    fn prop_layout_order_changes_bytes_only(insns in proptest::collection::vec(arb_insn(), 1..12)) {
        // Swapping block layout preserves decodability.
        let mut f = Function::new(FuncId(0), "f", 0);
        let b1 = f.cfg.fresh_id();
        f.cfg.block_mut(BlockId(0)).insns = insns.clone();
        f.cfg.block_mut(BlockId(0)).term = binrep::Terminator::Jmp(b1);
        f.cfg.push(binrep::Block::new(
            b1,
            vec![Insn::op0(Opcode::Nop)],
            binrep::Terminator::Ret,
        ));
        let mut a = bytes::BytesMut::new();
        binrep::encode_function(&mut a, &f, Arch::X86);
        f.cfg.blocks.swap(0, 1);
        let mut b = bytes::BytesMut::new();
        binrep::encode_function(&mut b, &f, Arch::X86);
        prop_assert!(binrep::decode(&a, Arch::X86).is_ok());
        prop_assert!(binrep::decode(&b, Arch::X86).is_ok());
    }
}

/// One edit of an encoding: overwrite (most often), insert or delete
/// the byte at `at`, taken modulo the length.
fn edit_strategy() -> impl Strategy<Value = (usize, u8, u8)> {
    (any::<usize>(), any::<u8>(), 0u8..8)
}

fn mutate(mut bytes: Vec<u8>, edits: &[(usize, u8, u8)]) -> Vec<u8> {
    for &(at, byte, kind) in edits {
        match kind {
            6 => bytes.insert(at % (bytes.len() + 1), byte),
            7 if !bytes.is_empty() => {
                bytes.remove(at % bytes.len());
            }
            _ if !bytes.is_empty() => {
                let i = at % bytes.len();
                bytes[i] = byte;
            }
            _ => {}
        }
    }
    bytes
}

/// A binary whose entry function holds `insns`, ends in every
/// terminator kind, and which carries data and an import.
fn sample_binary(insns: Vec<Insn>) -> Binary {
    let mut bin = Binary::new("sample", Arch::X8664);
    bin.add_string("hi");
    let puts = bin.import_by_name("puts");
    let mut f = Function::new(FuncId(0), "main", 2);
    let [b1, b2, b3, b4] = [(); 4].map(|_| f.cfg.fresh_id());
    let entry = f.cfg.block_mut(BlockId(0));
    entry.insns = insns;
    entry.insns.push(Insn::call_import(puts));
    entry.term = Terminator::Branch {
        cond: Cond::Ne,
        then_bb: b1,
        else_bb: b2,
    };
    let index = Gpr::Ecx;
    f.cfg.push(Block::new(
        b1,
        vec![],
        Terminator::JumpTable {
            index,
            targets: vec![b2, b3],
        },
    ));
    f.cfg.push(Block::new(
        b2,
        vec![],
        Terminator::LoopBack { body: b2, exit: b3 },
    ));
    f.cfg.push(Block::new(b3, vec![], Terminator::Jmp(b4)));
    f.cfg
        .push(Block::new(b4, vec![], Terminator::TailCall(FuncId(0))));
    bin.functions.push(f);
    bin
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8000))]

    #[test]
    fn mutated_binary_encodings_decode_canonically_or_fail_typed(
        insns in proptest::collection::vec(arb_insn(), 0..12),
        edits in proptest::collection::vec(edit_strategy(), 1..4),
    ) {
        let bytes = mutate(encode_binary(&sample_binary(insns)), &edits);
        if let Ok(bin) = decode_binary(&bytes) {
            // One byte sequence per binary: whatever decodes is the
            // encoding of what it decoded to.
            prop_assert_eq!(encode_binary(&bin), bytes);
        }
    }

    #[test]
    fn mutated_instruction_streams_decode_or_fail_typed(
        insns in proptest::collection::vec(arb_insn(), 1..24),
        edits in proptest::collection::vec(edit_strategy(), 1..4),
    ) {
        let bin = sample_binary(insns);
        for arch in Arch::ALL {
            let bin = Binary { arch, ..bin.clone() };
            let bytes = mutate(binrep::encode_binary(&bin), &edits);
            if let Err(e) = binrep::decode(&bytes, arch) {
                prop_assert!(e.offset <= bytes.len(), "{:?}: {}", arch, e);
            }
        }
    }
}
