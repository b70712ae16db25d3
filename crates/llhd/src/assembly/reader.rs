//! Parsing of the human-readable LLHD assembly.

use crate::ir::{
    Block, InstData, Module, Opcode, RegMode, RegTrigger, Signature, UnitBuilder, UnitData,
    UnitKind, UnitName, Value,
};
use crate::ty::{self, Type};
use crate::value::{parse_time, ApInt, ConstValue, LogicVector};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// An error produced while parsing LLHD assembly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// The 1-based line on which the error occurred.
    pub line: usize,
    /// A description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a time literal such as `1ns` or `500ps 2d`.
pub fn parse_time_literal(s: &str) -> Option<crate::value::TimeValue> {
    parse_time(s)
}

/// Parse a module from LLHD assembly text.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax or semantic problem
/// encountered.
pub fn parse_module(input: &str) -> Result<Module, ParseError> {
    let tokens = lex(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        module: Module::new(),
    };
    while !parser.at_end() {
        parser.parse_unit()?;
    }
    Ok(parser.module)
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// A token borrowing its text from the input. Lexing allocates nothing per
/// token — parsing a module allocates names only at the point where the
/// parser interns them into the unit (value/block name maps), which is the
/// hot path of `parse_module` on large modules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tok<'a> {
    /// A bare identifier or keyword (`func`, `add`, `i32`, `entry`, `1ns`).
    Ident(&'a str),
    /// A global name `@foo`.
    Global(&'a str),
    /// A local name `%foo`.
    Local(&'a str),
    /// An integer literal.
    Number(&'a str),
    /// A quoted string literal (without quotes).
    Str(&'a str),
    /// Punctuation.
    Punct(char),
}

#[derive(Clone, Copy, Debug)]
struct Token<'a> {
    tok: Tok<'a>,
    line: usize,
}

/// Scan a name/identifier run starting at `start`, returning its end. The
/// ASCII hot path is a byte scan; embedded non-ASCII characters are
/// accepted iff they are unicode-alphanumeric (matching the previous
/// char-based lexer).
fn scan_name(input: &str, start: usize) -> usize {
    let bytes = input.as_bytes();
    let mut end = start;
    while end < bytes.len() {
        let b = bytes[end];
        if b < 0x80 {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
                end += 1;
            } else {
                break;
            }
        } else {
            let c = input[end..].chars().next().unwrap();
            if c.is_alphanumeric() {
                end += c.len_utf8();
            } else {
                break;
            }
        }
    }
    end
}

fn lex(input: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = input.as_bytes();
    // Pre-size for the common token density so the vector does not
    // repeatedly regrow while lexing multi-hundred-kilobyte modules.
    let mut tokens = Vec::with_capacity(input.len() / 4);
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b';' => {
                // Comment until end of line (the newline itself is handled
                // by the next iteration, which counts the line).
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'@' | b'%' => {
                let end = scan_name(input, i + 1);
                if end == i + 1 {
                    return Err(ParseError {
                        line,
                        message: format!("expected name after '{}'", c as char),
                    });
                }
                let name = &input[i + 1..end];
                let tok = if c == b'@' {
                    Tok::Global(name)
                } else {
                    Tok::Local(name)
                };
                tokens.push(Token { tok, line });
                i = end;
            }
            b'"' => {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len() && bytes[end] != b'"' {
                    end += 1;
                }
                if end >= bytes.len() {
                    return Err(ParseError {
                        line,
                        message: "unterminated string literal".to_string(),
                    });
                }
                tokens.push(Token {
                    tok: Tok::Str(&input[start..end]),
                    line,
                });
                i = end + 1;
            }
            b'0'..=b'9' => {
                // A literal like `1ns` stays one token; pure digits are a
                // number. Name characters `_`/`.` terminate the run, like
                // the char-based lexer's `is_alphanumeric` did.
                let mut end = i;
                let mut all_digits = true;
                while end < bytes.len() {
                    let b = bytes[end];
                    if b < 0x80 {
                        if b.is_ascii_alphanumeric() {
                            all_digits &= b.is_ascii_digit();
                            end += 1;
                        } else {
                            break;
                        }
                    } else {
                        let ch = input[end..].chars().next().unwrap();
                        if ch.is_alphanumeric() {
                            all_digits = false;
                            end += ch.len_utf8();
                        } else {
                            break;
                        }
                    }
                }
                let text = &input[i..end];
                let tok = if all_digits {
                    Tok::Number(text)
                } else {
                    Tok::Ident(text)
                };
                tokens.push(Token { tok, line });
                i = end;
            }
            b'-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token {
                        tok: Tok::Punct('>'),
                        line,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        tok: Tok::Punct('-'),
                        line,
                    });
                    i += 1;
                }
            }
            // NB: `x` is intentionally absent — it lexes as an identifier
            // (`xor`, `%xp`, the `x` of array types), never as punctuation.
            b'(' | b')' | b'{' | b'}' | b'[' | b']' | b',' | b':' | b'=' | b'$' | b'*' => {
                tokens.push(Token {
                    tok: Tok::Punct(c as char),
                    line,
                });
                i += 1;
            }
            _ => {
                // Identifier start, unicode whitespace, or garbage —
                // decode one char to decide (cold path).
                let ch = input[i..].chars().next().unwrap();
                if ch.is_alphabetic() || ch == '_' {
                    let end = scan_name(input, i);
                    tokens.push(Token {
                        tok: Tok::Ident(&input[i..end]),
                        line,
                    });
                    i = end;
                } else if ch.is_whitespace() {
                    i += ch.len_utf8();
                } else {
                    return Err(ParseError {
                        line,
                        message: format!("unexpected character '{}'", ch),
                    });
                }
            }
        }
    }
    Ok(tokens)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    module: Module,
}

/// Per-unit name tables. Names are interned (allocated) here, at the
/// point a definition binds them — the only per-name allocations on the
/// parse path.
struct UnitContext {
    values: HashMap<String, Value>,
    blocks: HashMap<String, Block>,
    /// Blocks whose label has been reached.
    labelled: HashSet<Block>,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.tokens.get(self.pos).map(|t| t.tok)
    }

    fn peek_at(&self, offset: usize) -> Option<Tok<'a>> {
        self.tokens.get(self.pos + offset).map(|t| t.tok)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let tok = self.tokens.get(self.pos).map(|t| t.tok);
        self.pos += 1;
        tok
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            other => Err(self.error(format!("expected '{}', found {:?}", c, other))),
        }
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) if s == kw => Ok(()),
            other => Err(self.error(format!("expected '{}', found {:?}", kw, other))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn parse_local(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Tok::Local(s)) => Ok(s),
            other => Err(self.error(format!("expected %name, found {:?}", other))),
        }
    }

    fn parse_number(&mut self) -> Result<usize, ParseError> {
        match self.next() {
            Some(Tok::Number(s)) => s
                .parse()
                .map_err(|_| self.error(format!("invalid number '{}'", s))),
            other => Err(self.error(format!("expected number, found {:?}", other))),
        }
    }

    // ----- types -----------------------------------------------------------

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let mut base = match self.next() {
            Some(Tok::Ident(s)) => self.parse_base_type_ident(s)?,
            Some(Tok::Punct('[')) => {
                let len = self.parse_number()?;
                self.expect_ident("x")?;
                let inner = self.parse_type()?;
                self.expect_punct(']')?;
                ty::array_ty(len, inner)
            }
            Some(Tok::Punct('{')) => {
                let mut fields = vec![];
                if !self.eat_punct('}') {
                    loop {
                        fields.push(self.parse_type()?);
                        if self.eat_punct('}') {
                            break;
                        }
                        self.expect_punct(',')?;
                    }
                }
                ty::struct_ty(fields)
            }
            other => return Err(self.error(format!("expected type, found {:?}", other))),
        };
        loop {
            if self.eat_punct('$') {
                base = ty::signal_ty(base);
            } else if self.eat_punct('*') {
                base = ty::pointer_ty(base);
            } else {
                break;
            }
        }
        Ok(base)
    }

    fn parse_base_type_ident(&self, s: &str) -> Result<Type, ParseError> {
        if s == "void" {
            return Ok(ty::void_ty());
        }
        if s == "time" {
            return Ok(ty::time_ty());
        }
        let (prefix, rest) = s.split_at(1);
        let width: usize = rest
            .parse()
            .map_err(|_| self.error(format!("invalid type '{}'", s)))?;
        if width > ty::MAX_WIDTH {
            return Err(self.error(format!(
                "invalid type '{}': wider than {} bits",
                s,
                ty::MAX_WIDTH
            )));
        }
        match prefix {
            // An integer has at least one bit; `i0` has no values.
            "i" if width == 0 => Err(self.error(format!("invalid type '{}'", s))),
            "i" => Ok(ty::int_ty(width)),
            "n" => Ok(ty::enum_ty(width)),
            "l" => Ok(ty::logic_ty(width)),
            _ => Err(self.error(format!("invalid type '{}'", s))),
        }
    }

    // ----- units -----------------------------------------------------------

    fn parse_unit(&mut self) -> Result<(), ParseError> {
        let kind = match self.next() {
            Some(Tok::Ident("func")) => UnitKind::Function,
            Some(Tok::Ident("proc")) => UnitKind::Process,
            Some(Tok::Ident("entity")) => UnitKind::Entity,
            other => return Err(self.error(format!("expected unit keyword, found {:?}", other))),
        };
        let name = match self.next() {
            Some(Tok::Global(s)) => UnitName::global(s),
            Some(Tok::Local(s)) => UnitName::local(s),
            other => return Err(self.error(format!("expected unit name, found {:?}", other))),
        };
        let inputs = self.parse_arg_list()?;
        let mut arg_names: Vec<&'a str> = inputs.iter().map(|&(n, _)| n).collect();
        let sig = match kind {
            UnitKind::Function => {
                let ret = self.parse_type()?;
                Signature::new_func(inputs.iter().map(|(_, t)| t.clone()).collect(), ret)
            }
            UnitKind::Process | UnitKind::Entity => {
                self.expect_punct('>')?;
                let outputs = self.parse_arg_list()?;
                arg_names.extend(outputs.iter().map(|&(n, _)| n));
                Signature::new_entity(
                    inputs.iter().map(|(_, t)| t.clone()).collect(),
                    outputs.iter().map(|(_, t)| t.clone()).collect(),
                )
            }
        };

        let mut unit = UnitData::new(kind, name, sig);
        let mut ctx = UnitContext {
            values: HashMap::new(),
            blocks: HashMap::new(),
            labelled: HashSet::new(),
        };
        for (i, &name) in arg_names.iter().enumerate() {
            let value = unit.arg_value(i);
            unit.set_value_name(value, name);
            ctx.values.insert(name.to_string(), value);
        }
        self.expect_punct('{')?;
        self.parse_body(&mut unit, &mut ctx)?;
        self.module.add_unit(unit);
        Ok(())
    }

    fn parse_arg_list(&mut self) -> Result<Vec<(&'a str, Type)>, ParseError> {
        self.expect_punct('(')?;
        let mut args = vec![];
        if self.eat_punct(')') {
            return Ok(args);
        }
        loop {
            let ty = self.parse_type()?;
            let name = self.parse_local()?;
            args.push((name, ty));
            if self.eat_punct(')') {
                break;
            }
            self.expect_punct(',')?;
        }
        Ok(args)
    }

    fn parse_body(&mut self, unit: &mut UnitData, ctx: &mut UnitContext) -> Result<(), ParseError> {
        let is_entity = unit.kind() == UnitKind::Entity;
        let mut builder = UnitBuilder::new(unit);
        // Phi operand patches: (inst, operand index, value name).
        let mut patches: Vec<(crate::ir::Inst, usize, &'a str)> = vec![];
        loop {
            match self.peek() {
                Some(Tok::Punct('}')) => {
                    self.pos += 1;
                    break;
                }
                None => return Err(self.error("unexpected end of input in unit body")),
                Some(Tok::Ident(_)) if self.peek_at(1) == Some(Tok::Punct(':')) => {
                    // A block label.
                    let label = match self.next() {
                        Some(Tok::Ident(s)) => s,
                        _ => unreachable!(),
                    };
                    self.expect_punct(':')?;
                    if is_entity {
                        return Err(self.error("entities may not contain block labels"));
                    }
                    let block = Self::lookup_block(&mut builder, ctx, label);
                    // Layout follows label order: a block created at an
                    // earlier branch to it takes its position here.
                    if ctx.labelled.insert(block) {
                        builder.unit_mut().move_block_to_end(block);
                    }
                    builder.append_to(block);
                }
                _ => {
                    self.parse_inst(&mut builder, ctx, &mut patches)?;
                }
            }
        }
        // Resolve deferred phi operands.
        for (inst, index, name) in patches {
            let value = *ctx
                .values
                .get(name)
                .ok_or_else(|| self.error(format!("unknown value %{}", name)))?;
            builder.unit_mut().inst_data_mut(inst).args[index] = value;
        }
        Ok(())
    }

    fn lookup_block(builder: &mut UnitBuilder, ctx: &mut UnitContext, name: &str) -> Block {
        if let Some(&bb) = ctx.blocks.get(name) {
            return bb;
        }
        let bb = builder.block(name.to_string());
        ctx.blocks.insert(name.to_string(), bb);
        bb
    }

    fn lookup_value(&self, ctx: &UnitContext, name: &str) -> Result<Value, ParseError> {
        ctx.values
            .get(name)
            .copied()
            .ok_or_else(|| self.error(format!("unknown value %{}", name)))
    }

    fn parse_value(&mut self, ctx: &UnitContext) -> Result<Value, ParseError> {
        let name = self.parse_local()?;
        self.lookup_value(ctx, name)
    }

    fn parse_value_list(&mut self, ctx: &UnitContext) -> Result<Vec<Value>, ParseError> {
        let mut values = vec![];
        loop {
            values.push(self.parse_value(ctx)?);
            if !self.eat_punct(',') {
                break;
            }
        }
        Ok(values)
    }

    // ----- instructions ----------------------------------------------------

    fn parse_inst(
        &mut self,
        builder: &mut UnitBuilder,
        ctx: &mut UnitContext,
        patches: &mut Vec<(crate::ir::Inst, usize, &'a str)>,
    ) -> Result<(), ParseError> {
        // Optional result binding.
        let result_name =
            if let (Some(Tok::Local(_)), Some(Tok::Punct('='))) = (self.peek(), self.peek_at(1)) {
                let name = self.parse_local()?;
                self.expect_punct('=')?;
                Some(name)
            } else {
                None
            };

        let mnemonic = match self.next() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.error(format!("expected instruction, found {:?}", other))),
        };

        let inst = match mnemonic {
            "const" => {
                let ty = self.parse_type()?;
                let konst = self.parse_const_value(&ty)?;
                builder.build(InstData::constant(konst))
            }
            "array" => {
                self.expect_punct('[')?;
                let args = self.parse_value_list(ctx)?;
                self.expect_punct(']')?;
                builder.build(InstData::new(Opcode::Array, args))
            }
            "strct" => {
                self.expect_punct('{')?;
                let args = self.parse_value_list(ctx)?;
                self.expect_punct('}')?;
                builder.build(InstData::new(Opcode::Struct, args))
            }
            "phi" => {
                let ty = self.parse_type()?;
                let mut args = vec![];
                let mut blocks = vec![];
                let mut pending: Vec<(usize, &'a str)> = vec![];
                loop {
                    self.expect_punct('[')?;
                    let vname = self.parse_local()?;
                    match ctx.values.get(vname) {
                        Some(&v) => args.push(v),
                        None => {
                            pending.push((args.len(), vname));
                            // Use a placeholder resolved after the body.
                            args.push(Value::from_index(0));
                        }
                    }
                    self.expect_punct(',')?;
                    let bname = self.parse_local()?;
                    blocks.push(Self::lookup_block(builder, ctx, bname));
                    self.expect_punct(']')?;
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                let mut data = InstData::new(Opcode::Phi, args);
                data.blocks = blocks;
                let inst = builder.build_with_type(data, Some(ty));
                for (index, name) in pending {
                    patches.push((inst, index, name));
                }
                inst
            }
            "br" => {
                // `br %bb` or `br %cond, %bb_false, %bb_true`.
                let first = self.parse_local()?;
                if self.eat_punct(',') {
                    let cond = self.lookup_value(ctx, first)?;
                    let f = self.parse_local()?;
                    self.expect_punct(',')?;
                    let t = self.parse_local()?;
                    let bf = Self::lookup_block(builder, ctx, f);
                    let bt = Self::lookup_block(builder, ctx, t);
                    builder.br_cond(cond, bf, bt)
                } else {
                    let bb = Self::lookup_block(builder, ctx, first);
                    builder.br(bb)
                }
            }
            "wait" => {
                let target = self.parse_local()?;
                let target = Self::lookup_block(builder, ctx, target);
                let time = if self.eat_ident("for") {
                    Some(self.parse_value(ctx)?)
                } else {
                    None
                };
                let signals = if self.eat_punct(',') {
                    self.parse_value_list(ctx)?
                } else {
                    vec![]
                };
                match time {
                    Some(t) => builder.wait_time(target, t, signals),
                    None => builder.wait(target, signals),
                }
            }
            "halt" => builder.halt(),
            "ret" => {
                // `ret` or `ret ty %value`.
                if matches!(self.peek(), Some(Tok::Ident(_)) | Some(Tok::Punct('[')))
                    && !self.next_is_label_or_inst()
                {
                    let _ty = self.parse_type()?;
                    let value = self.parse_value(ctx)?;
                    builder.ret_value(value)
                } else {
                    builder.ret()
                }
            }
            "drv" => {
                let _ty = self.parse_type()?;
                let signal = self.parse_value(ctx)?;
                self.expect_punct(',')?;
                let value = self.parse_value(ctx)?;
                self.expect_ident("after")?;
                let delay = self.parse_value(ctx)?;
                if self.eat_ident("if") {
                    let cond = self.parse_value(ctx)?;
                    builder.drv_cond(signal, value, delay, cond)
                } else {
                    builder.drv(signal, value, delay)
                }
            }
            "drvc" => {
                let _ty = self.parse_type()?;
                let signal = self.parse_value(ctx)?;
                self.expect_punct(',')?;
                let value = self.parse_value(ctx)?;
                self.expect_ident("after")?;
                let delay = self.parse_value(ctx)?;
                self.expect_ident("if")?;
                let cond = self.parse_value(ctx)?;
                builder.drv_cond(signal, value, delay, cond)
            }
            "reg" => {
                let _ty = self.parse_type()?;
                let signal = self.parse_value(ctx)?;
                let mut triggers = vec![];
                while self.eat_punct(',') {
                    let value = self.parse_value(ctx)?;
                    let mode = match self.next() {
                        Some(Tok::Ident(s)) => RegMode::from_keyword(s)
                            .ok_or_else(|| self.error(format!("unknown reg mode '{}'", s)))?,
                        other => {
                            return Err(self.error(format!("expected reg mode, found {:?}", other)))
                        }
                    };
                    let trigger = self.parse_value(ctx)?;
                    let gate = if self.eat_ident("if") {
                        Some(self.parse_value(ctx)?)
                    } else {
                        None
                    };
                    triggers.push(RegTrigger {
                        value,
                        mode,
                        trigger,
                        gate,
                    });
                }
                builder.reg(signal, triggers)
            }
            "call" => {
                let ret = self.parse_type()?;
                let target = match self.next() {
                    Some(Tok::Global(s)) => UnitName::global(s),
                    Some(Tok::Local(s)) => UnitName::local(s),
                    other => {
                        return Err(self.error(format!("expected call target, found {:?}", other)))
                    }
                };
                self.expect_punct('(')?;
                let args = if self.eat_punct(')') {
                    vec![]
                } else {
                    let args = self.parse_value_list(ctx)?;
                    self.expect_punct(')')?;
                    args
                };
                let arg_tys = args.iter().map(|&a| builder.unit().value_type(a)).collect();
                let ext = builder.ext_unit(target, Signature::new_func(arg_tys, ret));
                builder.call(ext, args)
            }
            "inst" => {
                let target = match self.next() {
                    Some(Tok::Global(s)) => UnitName::global(s),
                    Some(Tok::Local(s)) => UnitName::local(s),
                    other => {
                        return Err(self.error(format!("expected inst target, found {:?}", other)))
                    }
                };
                self.expect_punct('(')?;
                let inputs = if self.eat_punct(')') {
                    vec![]
                } else {
                    let v = self.parse_value_list(ctx)?;
                    self.expect_punct(')')?;
                    v
                };
                self.expect_punct('>')?;
                self.expect_punct('(')?;
                let outputs = if self.eat_punct(')') {
                    vec![]
                } else {
                    let v = self.parse_value_list(ctx)?;
                    self.expect_punct(')')?;
                    v
                };
                let in_tys = inputs
                    .iter()
                    .map(|&a| builder.unit().value_type(a))
                    .collect();
                let out_tys = outputs
                    .iter()
                    .map(|&a| builder.unit().value_type(a))
                    .collect();
                let ext = builder.ext_unit(target, Signature::new_entity(in_tys, out_tys));
                builder.inst(ext, inputs, outputs)
            }
            "extf" => {
                let _ty = self.parse_type()?;
                let target = self.parse_value(ctx)?;
                self.expect_punct(',')?;
                let index = self.parse_number()?;
                let mut data = InstData::new(Opcode::ExtField, vec![target]);
                data.imms = vec![index];
                builder.build(data)
            }
            "exts" => {
                let _ty = self.parse_type()?;
                let target = self.parse_value(ctx)?;
                self.expect_punct(',')?;
                let offset = self.parse_number()?;
                self.expect_punct(',')?;
                let length = self.parse_number()?;
                let mut data = InstData::new(Opcode::ExtSlice, vec![target]);
                data.imms = vec![offset, length];
                builder.build(data)
            }
            "insf" => {
                let _ty = self.parse_type()?;
                let target = self.parse_value(ctx)?;
                self.expect_punct(',')?;
                let value = self.parse_value(ctx)?;
                self.expect_punct(',')?;
                let index = self.parse_number()?;
                let mut data = InstData::new(Opcode::InsField, vec![target, value]);
                data.imms = vec![index];
                builder.build(data)
            }
            "inss" => {
                let _ty = self.parse_type()?;
                let target = self.parse_value(ctx)?;
                self.expect_punct(',')?;
                let value = self.parse_value(ctx)?;
                self.expect_punct(',')?;
                let offset = self.parse_number()?;
                self.expect_punct(',')?;
                let length = self.parse_number()?;
                let mut data = InstData::new(Opcode::InsSlice, vec![target, value]);
                data.imms = vec![offset, length];
                builder.build(data)
            }
            "zext" | "sext" | "trunc" => {
                let ty = self.parse_type()?;
                let value = self.parse_value(ctx)?;
                let opcode = Opcode::from_mnemonic(mnemonic).unwrap();
                let mut data = InstData::new(opcode, vec![value]);
                data.imms = vec![ty.unwrap_int()];
                builder.build(data)
            }
            other => {
                let opcode = Opcode::from_mnemonic(other)
                    .ok_or_else(|| self.error(format!("unknown instruction '{}'", other)))?;
                // Generic form: `<op> <type> %a, %b, ...` or bare `<op>`.
                let args = if matches!(
                    self.peek(),
                    Some(Tok::Ident(_)) | Some(Tok::Punct('[')) | Some(Tok::Punct('{'))
                ) {
                    let _ty = self.parse_type()?;
                    self.parse_value_list(ctx)?
                } else {
                    vec![]
                };
                builder.build(InstData::new(opcode, args))
            }
        };

        if let Some(name) = result_name {
            let result = builder
                .unit()
                .get_inst_result(inst)
                .ok_or_else(|| self.error("instruction produces no result to bind"))?;
            builder.unit_mut().set_value_name(result, name);
            ctx.values.insert(name.to_string(), result);
        }
        Ok(())
    }

    /// Heuristic used by `ret`: the next token starts a new instruction or
    /// label rather than a type if it is followed by `:` or `=`.
    fn next_is_label_or_inst(&self) -> bool {
        matches!(self.peek_at(1), Some(Tok::Punct(':')))
    }

    fn parse_const_value(&mut self, ty: &Type) -> Result<ConstValue, ParseError> {
        use crate::ty::TypeKind;
        match ty.kind() {
            TypeKind::Int(width) => {
                // `(negated, digits)`; the sign is applied after parsing
                // so the digit slice borrows straight from the input.
                let (neg, digits) = match self.next() {
                    Some(Tok::Number(s)) => (false, s),
                    Some(Tok::Punct('-')) => match self.next() {
                        Some(Tok::Number(s)) => (true, s),
                        other => {
                            return Err(self.error(format!("expected number, found {:?}", other)))
                        }
                    },
                    other => return Err(self.error(format!("expected number, found {:?}", other))),
                };
                let value = ApInt::from_str_radix10(*width, digits)
                    .ok_or_else(|| self.error(format!("invalid integer '{}'", digits)))?;
                Ok(ConstValue::Int(if neg { value.neg() } else { value }))
            }
            TypeKind::Enum(states) => {
                let value = self.parse_number()?;
                Ok(ConstValue::Enum {
                    states: *states,
                    value,
                })
            }
            TypeKind::Logic(width) => match self.next() {
                Some(Tok::Str(s)) => {
                    let v = LogicVector::from_str(s)
                        .ok_or_else(|| self.error(format!("invalid logic literal '{}'", s)))?;
                    if v.width() != *width {
                        return Err(self.error(format!(
                            "logic literal width {} does not match type l{}",
                            v.width(),
                            width
                        )));
                    }
                    Ok(ConstValue::Logic(v))
                }
                other => Err(self.error(format!("expected logic string, found {:?}", other))),
            },
            TypeKind::Time => {
                // Consume tokens that look like time components: `1ns`,
                // `2d`, `500ps`, a bare `0s`, etc.
                let mut text = String::new();
                loop {
                    match self.peek() {
                        Some(Tok::Ident(s))
                            if s.chars()
                                .next()
                                .map(|c| c.is_ascii_digit())
                                .unwrap_or(false) =>
                        {
                            if !text.is_empty() {
                                text.push(' ');
                            }
                            text.push_str(s);
                            self.pos += 1;
                        }
                        _ => break,
                    }
                }
                let time = parse_time(&text)
                    .ok_or_else(|| self.error(format!("invalid time literal '{}'", text)))?;
                Ok(ConstValue::Time(time))
            }
            _ => Err(self.error(format!("cannot parse constant of type {}", ty))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::write_module;
    use crate::verifier::verify_module;

    #[test]
    fn type_widths_are_bounded() {
        let constant =
            |ty: &str| format!("proc @p () -> () {{\nentry:\n %c = const {ty} 0\n halt\n}}");
        let widest = format!("i{}", ty::MAX_WIDTH);
        assert!(parse_module(&constant(&widest)).is_ok());
        for prefix in ["i", "l", "n"] {
            for width in [ty::MAX_WIDTH + 1, 4_000_000_000] {
                let e = parse_module(&constant(&format!("{prefix}{width}"))).unwrap_err();
                assert!(
                    e.to_string()
                        .contains(&format!("wider than {} bits", ty::MAX_WIDTH)),
                    "{}",
                    e
                );
            }
        }
    }

    #[test]
    fn parse_simple_function() {
        let src = r#"
        func @check (i32 %i, i32 %q) void {
        entry:
            %one = const i32 1
            %two = const i32 2
            %ip1 = add i32 %i, %one
            %ixip1 = umul i32 %i, %ip1
            %qexp = udiv i32 %ixip1, %two
            %eq = eq i32 %qexp, %q
            ret
        }
        "#;
        let module = parse_module(src).unwrap();
        assert_eq!(module.num_units(), 1);
        assert!(verify_module(&module).is_ok());
        let unit = module.unit(module.units()[0]);
        assert_eq!(unit.kind(), UnitKind::Function);
        assert_eq!(unit.all_insts().len(), 7);
    }

    #[test]
    fn parse_process_and_entity() {
        let src = r#"
        proc @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
        entry:
            %qp = prb i32$ %q
            %enp = prb i1$ %en
            %delay = const time 2ns
            drv i32$ %d, %qp after %delay
            br %enp, %final, %enabled
        enabled:
            %xp = prb i32$ %x
            %sum = add i32 %qp, %xp
            drv i32$ %d, %sum after %delay
            br %final
        final:
            wait %entry, %q, %x, %en
        }

        entity @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q) {
            %zero = const i32 0
            %d = sig i32 %zero
            inst @acc_comb (%q, %x, %en) -> (%d)
        }
        "#;
        let module = parse_module(src).unwrap();
        assert_eq!(module.num_units(), 2);
        assert!(
            verify_module(&module).is_ok(),
            "{:?}",
            verify_module(&module)
        );
        let comb = module.unit(module.unit_by_ident("acc_comb").unwrap());
        assert_eq!(comb.blocks().len(), 3);
        let acc = module.unit(module.unit_by_ident("acc").unwrap());
        assert_eq!(acc.kind(), UnitKind::Entity);
    }

    #[test]
    fn parse_wait_with_time() {
        let src = r#"
        proc @stim () -> (i1$ %clk) {
        entry:
            %del = const time 1ns 1d
            %one = const i1 1
            drv i1$ %clk, %one after %del
            wait %entry for %del, %clk
        }
        "#;
        let module = parse_module(src).unwrap();
        let unit = module.unit(module.units()[0]);
        let insts = unit.all_insts();
        let wait = insts.last().unwrap();
        assert_eq!(unit.inst_data(*wait).opcode, Opcode::WaitTime);
        assert_eq!(unit.inst_data(*wait).args.len(), 2);
    }

    #[test]
    fn parse_reg_with_triggers() {
        let src = r#"
        entity @ff (i1$ %clk, i32$ %d, i1$ %en) -> (i32$ %q) {
            %clkp = prb i1$ %clk
            %dp = prb i32$ %d
            %enp = prb i1$ %en
            reg i32$ %q, %dp rise %clkp if %enp
        }
        "#;
        let module = parse_module(src).unwrap();
        let unit = module.unit(module.units()[0]);
        let reg = *unit.all_insts().last().unwrap();
        let data = unit.inst_data(reg);
        assert_eq!(data.opcode, Opcode::Reg);
        assert_eq!(data.triggers.len(), 1);
        assert_eq!(data.triggers[0].mode, RegMode::Rise);
        assert!(data.triggers[0].gate.is_some());
    }

    #[test]
    fn parse_errors_are_reported_with_lines() {
        let src = "func @f () void {\nentry:\n  %x = bogus i32 %y\n}";
        let err = parse_module(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("bogus") || err.message.contains("unknown"));
        // A non-signal entity port is accepted by the *parser*; rejecting
        // it is the verifier's job.
        let module = parse_module("entity @e (i32 %a) -> () {}").unwrap();
        assert!(crate::verifier::verify_module(&module).is_err());
    }

    #[test]
    fn roundtrip_through_writer() {
        let src = r#"
        func @fma (i32 %a, i32 %b, i32 %c) i32 {
        entry:
            %p = umul i32 %a, %b
            %s = add i32 %p, %c
            ret i32 %s
        }
        proc @toggle () -> (i1$ %out) {
        entry:
            %zero = const i1 0
            %one = const i1 1
            %del = const time 5ns
            drv i1$ %out, %one after %del
            wait %next for %del
        next:
            drv i1$ %out, %zero after %del
            wait %entry for %del
        }
        "#;
        let module = parse_module(src).unwrap();
        let printed = write_module(&module);
        let reparsed = parse_module(&printed).unwrap_or_else(|e| panic!("{}\n{}", e, printed));
        assert_eq!(write_module(&reparsed), printed);
        assert!(verify_module(&reparsed).is_ok());
    }

    #[test]
    fn forward_referenced_blocks_keep_label_order() {
        // The loop head names `exit` before `body`, and both before their
        // labels: layout must follow the labels, not the mentions.
        let src = r#"
        proc @count () -> (i8$ %q) {
        entry:
            %zero = const i8 0
            %one = const i8 1
            %three = const i8 3
            %t = const time 1ns
            %i = var i8 %zero
            br %head
        head:
            %iv = ld i8* %i
            %more = ult i8 %iv, %three
            br %more, %exit, %body
        body:
            %next = add i8 %iv, %one
            st i8* %i, %next
            drv i8$ %q, %next after %t
            wait %head for %t
        exit:
            halt
        }
        "#;
        let module = parse_module(src).unwrap();
        verify_module(&module).unwrap();
        let unit = module.unit(module.units()[0]);
        let names: Vec<_> = unit
            .blocks()
            .into_iter()
            .map(|bb| unit.block_name(bb).unwrap().to_string())
            .collect();
        assert_eq!(names, ["entry", "head", "body", "exit"]);
        let printed = write_module(&module);
        assert_eq!(write_module(&parse_module(&printed).unwrap()), printed);
    }

    #[test]
    fn parse_logic_and_aggregate_constants() {
        let src = r#"
        func @f () void {
        entry:
            %l = const l4 "10XZ"
            %n = const n5 3
            %a = const i8 200
            %b = const i8 -1
            ret
        }
        "#;
        let module = parse_module(src).unwrap();
        let unit = module.unit(module.units()[0]);
        let insts = unit.all_insts();
        assert_eq!(
            unit.inst_data(insts[0]).konst,
            Some(ConstValue::Logic(LogicVector::from_str("10XZ").unwrap()))
        );
        assert_eq!(
            unit.inst_data(insts[1]).konst,
            Some(ConstValue::Enum {
                states: 5,
                value: 3
            })
        );
        assert_eq!(
            unit.inst_data(insts[3]).konst,
            Some(ConstValue::int(8, 255))
        );
    }
}
