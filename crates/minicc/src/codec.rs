//! Canonical binary serialization of [`Module`] ASTs.
//!
//! The evaluation service's worker *processes* receive the module under
//! test over the wire (an `evald` `Job` frame), so the AST needs a real
//! byte encoding — the workspace's `serde` derives are offline no-op
//! stubs and never serialize anything. This codec is hand-written and
//! canonical: one byte sequence per module, little-endian integers,
//! length-prefixed strings and sequences, one tag byte per enum variant
//! in declaration order. Canonicality matters because the farm's
//! determinism proofs hash what travels; a wobbling encoding would
//! produce spurious cache splits.
//!
//! The decoder reads through [`binrep::Cursor`], the one bounds-checked
//! cursor every decoder of outside bytes shares: unknown tags and
//! trailing garbage are errors, and recursion (nested
//! expressions/statements) is depth-capped so a hostile payload cannot
//! blow the stack.

use crate::ast::{BinOp, Expr, FuncDef, Global, LValue, Local, Module, Stmt};
pub use binrep::CodecError;
use binrep::Cursor;

/// Magic prefix of an encoded module (`MCC ` + format version).
const MAGIC: [u8; 4] = *b"MCC\x01";

/// Nesting bound for the decoder (expressions inside statements inside
/// statements…). Generated corpus programs nest a handful of levels;
/// anything deeper than this is garbage, not a program.
pub const MAX_DEPTH: usize = 64;

/// Encode a module to its canonical byte form.
pub fn encode_module(m: &Module) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&MAGIC);
    put_str(&mut out, &m.name);
    put_len(&mut out, m.funcs.len());
    for f in &m.funcs {
        put_func(&mut out, f);
    }
    put_len(&mut out, m.globals.len());
    for g in &m.globals {
        put_str(&mut out, &g.name);
        put_len(&mut out, g.words.len());
        for w in &g.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    out
}

/// Decode a module from bytes produced by [`encode_module`].
///
/// # Errors
///
/// Any structural defect — wrong magic, truncation, unknown tags,
/// invalid UTF-8, excessive nesting, or trailing bytes — is a
/// [`CodecError`]; the decoder never panics on hostile input.
pub fn decode_module(bytes: &[u8]) -> Result<Module, CodecError> {
    let mut r = Cursor::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let name = r.string()?;
    let funcs = r.seq(func)?;
    let globals = r.seq(|r| {
        Ok(Global {
            name: r.string()?,
            words: r.seq(Cursor::u32)?,
        })
    })?;
    r.finish()?;
    Ok(Module {
        name,
        funcs,
        globals,
    })
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_func(out: &mut Vec<u8>, f: &FuncDef) {
    put_str(out, &f.name);
    put_len(out, f.params.len());
    for p in &f.params {
        put_str(out, p);
    }
    put_len(out, f.locals.len());
    for l in &f.locals {
        put_str(out, &l.name);
        match l.array {
            None => out.push(0),
            Some(n) => {
                out.push(1);
                put_len(out, n);
            }
        }
    }
    put_body(out, &f.body);
    out.push(u8::from(f.is_library));
}

fn put_body(out: &mut Vec<u8>, body: &[Stmt]) {
    put_len(out, body.len());
    for s in body {
        put_stmt(out, s);
    }
}

fn put_stmt(out: &mut Vec<u8>, s: &Stmt) {
    match s {
        Stmt::Assign(lv, e) => {
            out.push(0);
            put_lvalue(out, lv);
            put_expr(out, e);
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            out.push(1);
            put_expr(out, cond);
            put_body(out, then_body);
            put_body(out, else_body);
        }
        Stmt::While { cond, body } => {
            out.push(2);
            put_expr(out, cond);
            put_body(out, body);
        }
        Stmt::For {
            var,
            start,
            end,
            step,
            body,
        } => {
            out.push(3);
            put_str(out, var);
            put_expr(out, start);
            put_expr(out, end);
            out.extend_from_slice(&step.to_le_bytes());
            put_body(out, body);
        }
        Stmt::Switch {
            scrutinee,
            cases,
            default,
        } => {
            out.push(4);
            put_expr(out, scrutinee);
            put_len(out, cases.len());
            for (k, body) in cases {
                out.extend_from_slice(&k.to_le_bytes());
                put_body(out, body);
            }
            put_body(out, default);
        }
        Stmt::Return(e) => {
            out.push(5);
            put_expr(out, e);
        }
        Stmt::ExprStmt(e) => {
            out.push(6);
            put_expr(out, e);
        }
    }
}

fn put_lvalue(out: &mut Vec<u8>, lv: &LValue) {
    match lv {
        LValue::Var(v) => {
            out.push(0);
            put_str(out, v);
        }
        LValue::Global(g) => {
            out.push(1);
            put_str(out, g);
        }
        LValue::Index(a, i) => {
            out.push(2);
            put_str(out, a);
            put_expr(out, i);
        }
    }
}

fn put_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Const(c) => {
            out.push(0);
            out.extend_from_slice(&c.to_le_bytes());
        }
        Expr::Var(v) => {
            out.push(1);
            put_str(out, v);
        }
        Expr::Global(g) => {
            out.push(2);
            put_str(out, g);
        }
        Expr::Index(a, i) => {
            out.push(3);
            put_str(out, a);
            put_expr(out, i);
        }
        Expr::Bin(op, a, b) => {
            out.push(4);
            out.push(*op as u8);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Not(a) => {
            out.push(5);
            put_expr(out, a);
        }
        Expr::Neg(a) => {
            out.push(6);
            put_expr(out, a);
        }
        Expr::Call(f, args) => {
            out.push(7);
            put_str(out, f);
            put_len(out, args.len());
            for a in args {
                put_expr(out, a);
            }
        }
        Expr::CallImport(f, args) => {
            out.push(8);
            put_str(out, f);
            put_len(out, args.len());
            for a in args {
                put_expr(out, a);
            }
        }
        Expr::Str(s) => {
            out.push(9);
            put_str(out, s);
        }
        Expr::AddrOf(n) => {
            out.push(10);
            put_str(out, n);
        }
    }
}

fn func(r: &mut Cursor<'_>) -> Result<FuncDef, CodecError> {
    let name = r.string()?;
    let params = r.seq(Cursor::string)?;
    let locals = r.seq(|r| {
        let name = r.string()?;
        let array = match r.u8()? {
            0 => None,
            // A word count, not a count of encoded elements: `validate`
            // bounds it.
            1 => Some(r.u32()? as usize),
            t => return Err(CodecError::BadTag("local-kind", t)),
        };
        Ok(Local { name, array })
    })?;
    let body = body(r, 0)?;
    let is_library = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(CodecError::BadTag("bool", t)),
    };
    Ok(FuncDef {
        name,
        params,
        locals,
        body,
        is_library,
    })
}

fn body(r: &mut Cursor<'_>, depth: usize) -> Result<Vec<Stmt>, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    r.seq(|r| stmt(r, depth + 1))
}

fn stmt(r: &mut Cursor<'_>, depth: usize) -> Result<Stmt, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    Ok(match r.u8()? {
        0 => Stmt::Assign(lvalue(r, depth)?, expr(r, depth)?),
        1 => Stmt::If {
            cond: expr(r, depth)?,
            then_body: body(r, depth)?,
            else_body: body(r, depth)?,
        },
        2 => Stmt::While {
            cond: expr(r, depth)?,
            body: body(r, depth)?,
        },
        3 => Stmt::For {
            var: r.string()?,
            start: expr(r, depth)?,
            end: expr(r, depth)?,
            step: r.u32()?,
            body: body(r, depth)?,
        },
        4 => Stmt::Switch {
            scrutinee: expr(r, depth)?,
            cases: r.seq(|r| Ok((r.u32()?, body(r, depth)?)))?,
            default: body(r, depth)?,
        },
        5 => Stmt::Return(expr(r, depth)?),
        6 => Stmt::ExprStmt(expr(r, depth)?),
        t => return Err(CodecError::BadTag("stmt", t)),
    })
}

fn lvalue(r: &mut Cursor<'_>, depth: usize) -> Result<LValue, CodecError> {
    Ok(match r.u8()? {
        0 => LValue::Var(r.string()?),
        1 => LValue::Global(r.string()?),
        2 => LValue::Index(r.string()?, expr(r, depth)?),
        t => return Err(CodecError::BadTag("lvalue", t)),
    })
}

fn binop(r: &mut Cursor<'_>) -> Result<BinOp, CodecError> {
    const OPS: [BinOp; 16] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    let t = r.u8()?;
    OPS.get(t as usize)
        .copied()
        .ok_or(CodecError::BadTag("binop", t))
}

fn expr(r: &mut Cursor<'_>, depth: usize) -> Result<Expr, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    let depth = depth + 1;
    Ok(match r.u8()? {
        0 => Expr::Const(r.u32()?),
        1 => Expr::Var(r.string()?),
        2 => Expr::Global(r.string()?),
        3 => Expr::Index(r.string()?, Box::new(expr(r, depth)?)),
        4 => {
            let op = binop(r)?;
            let a = expr(r, depth)?;
            let b = expr(r, depth)?;
            Expr::Bin(op, Box::new(a), Box::new(b))
        }
        5 => Expr::Not(Box::new(expr(r, depth)?)),
        6 => Expr::Neg(Box::new(expr(r, depth)?)),
        7 => Expr::Call(r.string()?, r.seq(|r| expr(r, depth))?),
        8 => Expr::CallImport(r.string()?, r.seq(|r| expr(r, depth))?),
        9 => Expr::Str(r.string()?),
        10 => Expr::AddrOf(r.string()?),
        t => return Err(CodecError::BadTag("expr", t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, CompilerKind, OptLevel};
    use binrep::Arch;
    use proptest::prelude::*;

    /// A module exercising every statement, lvalue and expression
    /// variant plus a few binops from both halves of the table.
    fn kitchen_sink() -> Module {
        let mut m = Module::new("kitchen-sink");
        let mut f = FuncDef::new(
            "main",
            vec!["a".into(), "b".into()],
            vec![
                Stmt::Assign(LValue::Var("x".into()), Expr::Const(7)),
                Stmt::Assign(
                    LValue::Global("g".into()),
                    Expr::bin(BinOp::Xor, Expr::Var("a".into()), Expr::Global("g".into())),
                ),
                Stmt::Assign(
                    LValue::Index("buf".into(), Expr::Var("a".into())),
                    Expr::Index("buf".into(), Box::new(Expr::Const(0))),
                ),
                Stmt::If {
                    cond: Expr::bin(BinOp::Lt, Expr::Var("a".into()), Expr::Var("b".into())),
                    then_body: vec![Stmt::ExprStmt(Expr::Call(
                        "helper".into(),
                        vec![Expr::Neg(Box::new(Expr::Var("a".into())))],
                    ))],
                    else_body: vec![Stmt::ExprStmt(Expr::CallImport(
                        "puts".into(),
                        vec![Expr::Str("hi\u{2713}".into())],
                    ))],
                },
                Stmt::While {
                    cond: Expr::Not(Box::new(Expr::Var("x".into()))),
                    body: vec![Stmt::Assign(
                        LValue::Var("x".into()),
                        Expr::vc(BinOp::Sub, "x", 1),
                    )],
                },
                Stmt::For {
                    var: "i".into(),
                    start: Expr::Const(0),
                    end: Expr::Const(16),
                    step: 2,
                    body: vec![Stmt::Assign(
                        LValue::Index("buf".into(), Expr::Var("i".into())),
                        Expr::AddrOf("g".into()),
                    )],
                },
                Stmt::Switch {
                    scrutinee: Expr::Var("a".into()),
                    cases: vec![(0, vec![Stmt::Return(Expr::Const(0))]), (u32::MAX, vec![])],
                    default: vec![],
                },
                Stmt::Return(Expr::bin(BinOp::Shr, Expr::Var("x".into()), Expr::Const(3))),
            ],
        );
        f.local("x").local("i").local_array("buf", 16);
        m.funcs.push(f);
        let mut helper = FuncDef::new("helper", vec!["v".into()], vec![]);
        helper.is_library = true;
        m.funcs.push(helper);
        m.globals.push(Global {
            name: "g".into(),
            words: vec![1, 2, 3],
        });
        m
    }

    #[test]
    fn kitchen_sink_round_trips() {
        let m = kitchen_sink();
        let bytes = encode_module(&m);
        assert_eq!(decode_module(&bytes).unwrap(), m);
        // Canonical: encoding the decode reproduces the bytes.
        assert_eq!(encode_module(&decode_module(&bytes).unwrap()), bytes);
    }

    #[test]
    fn an_array_larger_than_its_encoding_round_trips() {
        // An array local's size is a word count, not a count of encoded
        // elements, so it may exceed the bytes that follow it.
        let mut f = FuncDef::new("main", vec![], vec![Stmt::Return(Expr::Const(0))]);
        f.local_array("buf", 4096);
        let mut m = Module::new("big");
        m.funcs.push(f);
        let bytes = encode_module(&m);
        assert!(bytes.len() < 4096);
        assert_eq!(decode_module(&bytes), Ok(m));
    }

    #[test]
    fn all_binops_round_trip() {
        use BinOp::*;
        for op in [
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge,
        ] {
            let mut m = Module::new("ops");
            m.funcs.push(FuncDef::new(
                "main",
                vec![],
                vec![Stmt::Return(Expr::bin(op, Expr::Const(1), Expr::Const(2)))],
            ));
            assert_eq!(decode_module(&encode_module(&m)).unwrap(), m);
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_module(&kitchen_sink());
        for cut in 0..bytes.len() {
            let err = decode_module(&bytes[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(err, CodecError::Truncated | CodecError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_trailing_bytes_are_rejected() {
        let mut bytes = encode_module(&kitchen_sink());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(decode_module(&wrong), Err(CodecError::BadMagic));
        bytes.push(0);
        assert_eq!(decode_module(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tags_are_rejected_not_misread() {
        let mut m = Module::new("t");
        m.funcs.push(FuncDef::new(
            "main",
            vec![],
            vec![Stmt::Return(Expr::Const(1))],
        ));
        let bytes = encode_module(&m);
        // The statement tag byte sits right after the (empty) locals
        // list and body length; find it by searching for the Return tag
        // followed by the Const tag.
        let at = bytes
            .windows(2)
            .position(|w| w == [5, 0])
            .expect("return+const tags present");
        let mut bad = bytes.clone();
        bad[at] = 0xEE;
        assert!(matches!(
            decode_module(&bad),
            Err(CodecError::BadTag("stmt", 0xEE))
        ));
    }

    #[test]
    fn deep_nesting_is_capped_not_a_stack_overflow() {
        // Hand-build a payload with one function whose body is Return of
        // Not(Not(Not(...Const))) far past MAX_DEPTH.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        // name "d"
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'd');
        // 1 function
        bytes.extend_from_slice(&1u32.to_le_bytes());
        // func name "m", 0 params, 0 locals
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'm');
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        // body: 1 stmt, Return(...)
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(5);
        bytes.extend(std::iter::repeat_n(5u8, 10_000)); // Expr::Not, nested

        bytes.push(0); // Expr::Const
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.push(0); // is_library = false
        bytes.extend_from_slice(&0u32.to_le_bytes()); // 0 globals
        assert_eq!(decode_module(&bytes), Err(CodecError::TooDeep));
    }

    #[test]
    fn forged_length_cannot_force_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // name "length"
        assert_eq!(decode_module(&bytes), Err(CodecError::Truncated));
    }

    /// One edit of an encoding: overwrite (most often), insert or delete
    /// the byte at `at`, taken modulo the length.
    fn edit_strategy() -> impl Strategy<Value = (usize, u8, u8)> {
        // Letters keep a mutated name a valid string, so more mutants
        // decode and reach the compiler.
        let byte = prop_oneof![b'a'..=b'z', any::<u8>()];
        (any::<usize>(), byte, 0u8..8)
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10000))]

        #[test]
        fn mutated_encodings_decode_canonically_or_fail_typed(
            edits in proptest::collection::vec(edit_strategy(), 1..4),
        ) {
            let bytes = mutate(encode_module(&kitchen_sink()), &edits);
            if let Ok(m) = decode_module(&bytes) {
                // One byte sequence per module: whatever decodes is the
                // encoding of what it decoded to.
                prop_assert_eq!(encode_module(&m), bytes);
            }
        }

        #[test]
        fn a_module_that_decodes_compiles_at_o0_or_returns_compile_error(
            edits in proptest::collection::vec(edit_strategy(), 1..4),
        ) {
            let bytes = mutate(encode_module(&kitchen_sink()), &edits);
            if let Ok(m) = decode_module(&bytes) {
                // Ok or a typed CompileError; a panic fails the test.
                let _ = Compiler::new(CompilerKind::Gcc).compile_preset(&m, OptLevel::O0, Arch::X86);
            }
        }
    }

    #[test]
    fn the_mutation_base_compiles() {
        Compiler::new(CompilerKind::Gcc)
            .compile_preset(&kitchen_sink(), OptLevel::O0, Arch::X86)
            .expect("the unmutated module is valid");
    }
}
