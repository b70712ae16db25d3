//! Lowering of the SystemVerilog AST to Behavioural LLHD.
//!
//! The mapping follows §3 of the paper: modules become entities, `always`
//! blocks and `initial` blocks become processes instantiated inside the
//! entity, continuous assignments become data flow directly inside the
//! entity, and module instantiations become `inst` instructions. The output
//! is intentionally unoptimized ("-O0"); cleanup is the job of `llhd-opt`.

use crate::ast::*;
use crate::CompileError;
use llhd::ir::{Module, Signature, UnitBuilder, UnitData, UnitKind, UnitName, Value};
use llhd::ty::{int_ty, signal_ty};
use llhd::value::{ConstValue, TimeValue};
use std::collections::{BTreeMap, HashMap};

/// Compile a parsed source file into an LLHD module.
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs outside the supported subset
/// (for example non-identifier instance connections).
pub fn compile_ast(file: &SourceFile) -> Result<Module, CompileError> {
    let mut module = Module::new();
    // Port directory for instantiations (modules may be used before they are
    // declared).
    let ports_of: HashMap<String, Vec<Port>> = file
        .modules
        .iter()
        .map(|m| (m.name.clone(), m.ports.clone()))
        .collect();
    for decl in &file.modules {
        compile_module(decl, &ports_of, &mut module)?;
    }
    Ok(module)
}

fn err(message: impl Into<String>) -> CompileError {
    CompileError {
        line: 0,
        message: message.into(),
    }
}

struct NetInfo {
    signal: Value,
    width: usize,
}

fn compile_module(
    decl: &ModuleDecl,
    ports_of: &HashMap<String, Vec<Port>>,
    module: &mut Module,
) -> Result<(), CompileError> {
    // Entity signature: inputs then outputs.
    let inputs: Vec<&Port> = decl
        .ports
        .iter()
        .filter(|p| p.direction == Direction::Input)
        .collect();
    let outputs: Vec<&Port> = decl
        .ports
        .iter()
        .filter(|p| p.direction == Direction::Output)
        .collect();
    let sig = Signature::new_entity(
        inputs.iter().map(|p| signal_ty(int_ty(p.width))).collect(),
        outputs.iter().map(|p| signal_ty(int_ty(p.width))).collect(),
    );
    let mut entity = UnitData::new(UnitKind::Entity, UnitName::global(&decl.name), sig);

    // Net directory: ports first, then internal declarations.
    let mut nets: HashMap<String, NetInfo> = HashMap::new();
    for (i, port) in inputs.iter().chain(outputs.iter()).enumerate() {
        let value = entity.arg_value(i);
        entity.set_value_name(value, port.name.clone());
        nets.insert(
            port.name.clone(),
            NetInfo {
                signal: value,
                width: port.width,
            },
        );
    }
    {
        let mut builder = UnitBuilder::new(&mut entity);
        for item in &decl.items {
            if let Item::Declaration { width, names } = item {
                for name in names {
                    if nets.contains_key(name) {
                        continue;
                    }
                    let zero = builder.ins_const(ConstValue::int(*width, 0));
                    let signal = builder.sig(zero);
                    builder.unit_mut().set_value_name(signal, name.clone());
                    nets.insert(
                        name.clone(),
                        NetInfo {
                            signal,
                            width: *width,
                        },
                    );
                }
            }
        }
    }

    // Generated child processes to instantiate: (unit, inputs, outputs).
    let mut children: Vec<(UnitData, Vec<String>, Vec<String>)> = vec![];
    let mut counter = 0usize;

    {
        let mut builder = UnitBuilder::new(&mut entity);
        for item in &decl.items {
            match item {
                Item::Declaration { .. } => {}
                Item::Assign { target, value } => {
                    // Continuous assignments become data flow in the entity.
                    let target_info = nets
                        .get(target)
                        .ok_or_else(|| err(format!("assignment to undeclared net '{}'", target)))?;
                    let mut reads = vec![];
                    value.reads(&mut reads);
                    let mut env = HashMap::new();
                    for name in &reads {
                        let info = nets
                            .get(name)
                            .ok_or_else(|| err(format!("use of undeclared net '{}'", name)))?;
                        let probed = builder.prb(info.signal);
                        env.insert(name.clone(), (probed, info.width));
                    }
                    let result = gen_expr(&mut builder, &env, value, target_info.width)?;
                    let delay = builder.const_time(TimeValue::ZERO);
                    builder.drv(target_info.signal, result, delay);
                }
                Item::AlwaysFf { clock, body } => {
                    counter += 1;
                    let unit_name = format!("{}_ff_{}", decl.name, counter);
                    let (unit, ins, outs) = gen_always_ff(&unit_name, clock, body, &nets)?;
                    children.push((unit, ins, outs));
                }
                Item::AlwaysComb { body } => {
                    counter += 1;
                    let unit_name = format!("{}_comb_{}", decl.name, counter);
                    let (unit, ins, outs) = gen_always_comb(&unit_name, body, &nets)?;
                    children.push((unit, ins, outs));
                }
                Item::Initial { body } => {
                    counter += 1;
                    let unit_name = format!("{}_initial_{}", decl.name, counter);
                    let (unit, ins, outs) = gen_initial(&unit_name, body, &nets)?;
                    children.push((unit, ins, outs));
                }
                Item::Instance {
                    module: target,
                    name: _,
                    connections,
                } => {
                    let ports = ports_of
                        .get(target)
                        .ok_or_else(|| err(format!("instantiation of unknown module '{}'", target)))?;
                    // Resolve connections to nets per port.
                    let mut by_port: HashMap<&str, &Expr> = HashMap::new();
                    for (i, (port_name, expr)) in connections.iter().enumerate() {
                        match port_name {
                            Some(name) => {
                                by_port.insert(name.as_str(), expr);
                            }
                            None => {
                                let port = ports.get(i).ok_or_else(|| {
                                    err(format!("too many connections for '{}'", target))
                                })?;
                                by_port.insert(port.name.as_str(), expr);
                            }
                        }
                    }
                    let mut in_sigs = vec![];
                    let mut out_sigs = vec![];
                    let mut in_tys = vec![];
                    let mut out_tys = vec![];
                    for port in ports {
                        let expr = by_port.get(port.name.as_str()).ok_or_else(|| {
                            err(format!(
                                "missing connection for port '{}' of '{}'",
                                port.name, target
                            ))
                        })?;
                        let net_name = match expr {
                            Expr::Ident(name) => name,
                            _ => {
                                return Err(err(
                                    "instance connections must be plain identifiers".to_string(),
                                ))
                            }
                        };
                        let info = nets.get(net_name).ok_or_else(|| {
                            err(format!("use of undeclared net '{}'", net_name))
                        })?;
                        match port.direction {
                            Direction::Input => {
                                in_sigs.push(info.signal);
                                in_tys.push(signal_ty(int_ty(port.width)));
                            }
                            Direction::Output => {
                                out_sigs.push(info.signal);
                                out_tys.push(signal_ty(int_ty(port.width)));
                            }
                        }
                    }
                    let ext = builder.ext_unit(
                        UnitName::global(target),
                        Signature::new_entity(in_tys, out_tys),
                    );
                    builder.inst(ext, in_sigs, out_sigs);
                }
            }
        }

        // Instantiate the generated processes.
        for (unit, ins, outs) in &children {
            let in_sigs: Vec<Value> = ins.iter().map(|n| nets[n].signal).collect();
            let out_sigs: Vec<Value> = outs.iter().map(|n| nets[n].signal).collect();
            let ext = builder.ext_unit(unit.name().clone(), unit.sig().clone());
            builder.inst(ext, in_sigs, out_sigs);
        }
    }

    for (unit, _, _) in children {
        module.add_unit(unit);
    }
    module.add_unit(entity);
    Ok(())
}

type ProcSpec = (UnitData, Vec<String>, Vec<String>);

/// Determine the read (minus written) and written net lists of a statement
/// body, keeping only names that refer to declared nets.
fn io_sets(body: &[Stmt], extra_reads: &[&str], nets: &HashMap<String, NetInfo>) -> (Vec<String>, Vec<String>) {
    let mut reads = vec![];
    stmts_read(body, &mut reads);
    for name in extra_reads {
        if !reads.contains(&name.to_string()) {
            reads.insert(0, name.to_string());
        }
    }
    let mut writes = vec![];
    stmts_written(body, &mut writes);
    let reads = reads
        .into_iter()
        .filter(|n| nets.contains_key(n) && !writes.contains(n))
        .collect();
    let writes = writes.into_iter().filter(|n| nets.contains_key(n)).collect();
    (reads, writes)
}

fn proc_signature(
    reads: &[String],
    writes: &[String],
    nets: &HashMap<String, NetInfo>,
) -> Signature {
    Signature::new_entity(
        reads.iter().map(|n| signal_ty(int_ty(nets[n].width))).collect(),
        writes.iter().map(|n| signal_ty(int_ty(nets[n].width))).collect(),
    )
}

/// Set up a process unit and the mapping from net names to its argument
/// values.
fn new_process(
    name: &str,
    reads: &[String],
    writes: &[String],
    nets: &HashMap<String, NetInfo>,
) -> (UnitData, HashMap<String, (Value, usize)>) {
    let sig = proc_signature(reads, writes, nets);
    let mut unit = UnitData::new(UnitKind::Process, UnitName::global(name), sig);
    let mut args = HashMap::new();
    for (i, net) in reads.iter().chain(writes.iter()).enumerate() {
        let value = unit.arg_value(i);
        unit.set_value_name(value, net.clone());
        args.insert(net.clone(), (value, nets[net].width));
    }
    (unit, args)
}

/// Generate the process for an `always_ff @(posedge clk)` block.
fn gen_always_ff(
    name: &str,
    clock: &str,
    body: &[Stmt],
    nets: &HashMap<String, NetInfo>,
) -> Result<ProcSpec, CompileError> {
    let (reads, writes) = io_sets(body, &[clock], nets);
    let (mut unit, args) = new_process(name, &reads, &writes, nets);
    {
        let mut b = UnitBuilder::new(&mut unit);
        let init = b.block("init");
        let check = b.block("check");
        let clk_sig = args[clock].0;
        b.append_to(init);
        let clk0 = b.prb(clk_sig);
        b.wait(check, vec![clk_sig]);
        b.append_to(check);
        let clk1 = b.prb(clk_sig);
        let chg = b.neq(clk0, clk1);
        let posedge = b.and(chg, clk1);
        // Probe every read signal once after the clock edge check.
        let mut env = HashMap::new();
        for net in reads.iter().chain(writes.iter()) {
            let (signal, width) = args[net];
            let probed = b.prb(signal);
            env.insert(net.clone(), (probed, width));
        }
        gen_conditional_drives(&mut b, &args, &env, body, Some(posedge))?;
        b.br(init);
    }
    Ok((unit, reads, writes))
}

/// Generate the process for an `always_comb` block.
fn gen_always_comb(
    name: &str,
    body: &[Stmt],
    nets: &HashMap<String, NetInfo>,
) -> Result<ProcSpec, CompileError> {
    let (reads, writes) = io_sets(body, &[], nets);
    let (mut unit, args) = new_process(name, &reads, &writes, nets);
    {
        let mut b = UnitBuilder::new(&mut unit);
        let entry = b.block("entry");
        b.append_to(entry);
        let mut env = HashMap::new();
        for net in reads.iter().chain(writes.iter()) {
            let (signal, width) = args[net];
            let probed = b.prb(signal);
            env.insert(net.clone(), (probed, width));
        }
        // Blocking semantics: fold the statements into final values per
        // written net, then drive them.
        // A `BTreeMap`: the merge loop in `fold_blocking` emits one mux per
        // net in iteration order, and the output must not vary from one
        // compile of the same source to the next.
        let mut values: BTreeMap<String, Value> = writes
            .iter()
            .map(|n| (n.clone(), env[n].0))
            .collect();
        let mut max_delay = 0u128;
        fold_blocking(&mut b, &env, body, &mut values, &mut max_delay)?;
        let delay = b.const_time(TimeValue::from_femtos(max_delay));
        for net in &writes {
            let (signal, _) = args[net];
            b.drv(signal, values[net], delay);
        }
        let observed: Vec<Value> = reads.iter().map(|n| args[n].0).collect();
        b.wait(entry, observed);
    }
    Ok((unit, reads, writes))
}

/// Generate the process for an `initial` block (testbench stimulus).
fn gen_initial(
    name: &str,
    body: &[Stmt],
    nets: &HashMap<String, NetInfo>,
) -> Result<ProcSpec, CompileError> {
    let (reads, writes) = io_sets(body, &[], nets);
    let (mut unit, args) = new_process(name, &reads, &writes, nets);
    {
        let mut b = UnitBuilder::new(&mut unit);
        let entry = b.block("entry");
        b.append_to(entry);
        let order: Vec<&String> = reads.iter().chain(writes.iter()).collect();
        gen_initial_stmts(&mut b, &args, &order, body)?;
        b.halt();
    }
    Ok((unit, reads, writes))
}

/// Width of a `repeat` loop counter: every count the lexer accepts fits.
const REPEAT_COUNTER_BITS: usize = 64;

/// Emit the statements of an `initial` block at the builder's position,
/// splitting blocks at every delay; `order` lists the process's nets in
/// argument order. On return the builder appends to the block where
/// execution continues.
fn gen_initial_stmts(
    b: &mut UnitBuilder,
    args: &HashMap<String, (Value, usize)>,
    order: &[&String],
    body: &[Stmt],
) -> Result<(), CompileError> {
    for stmt in body {
        match stmt {
            Stmt::Delay { delay_fs } => {
                if *delay_fs == 0 {
                    continue;
                }
                let next = b.anonymous_block();
                let delay = b.const_time(TimeValue::from_femtos(*delay_fs));
                b.wait_time(next, delay, vec![]);
                b.append_to(next);
            }
            Stmt::Assign {
                target,
                value,
                delay_fs,
                ..
            } => {
                let (signal, width) = *args
                    .get(target)
                    .ok_or_else(|| err(format!("assignment to undeclared net '{}'", target)))?;
                let mut env = HashMap::new();
                let mut read_names = vec![];
                value.reads(&mut read_names);
                for net in read_names {
                    if let Some(&(sig, w)) = args.get(&net) {
                        let probed = b.prb(sig);
                        env.insert(net, (probed, w));
                    }
                }
                let result = gen_expr(b, &env, value, width)?;
                let delay = b.const_time(TimeValue::from_femtos(delay_fs.unwrap_or(0)));
                b.drv(signal, result, delay);
            }
            Stmt::If { .. } => {
                let mut env = HashMap::new();
                for &net in order {
                    let (signal, width) = args[net];
                    let probed = b.prb(signal);
                    env.insert(net.clone(), (probed, width));
                }
                gen_conditional_drives(b, args, &env, std::slice::from_ref(stmt), None)?;
            }
            Stmt::Repeat { count, body } => {
                // A counted loop: `head` tests the counter, the body (with
                // its own delay splits and nested loops) runs between
                // `head` and the back edge, and emission continues in the
                // exit block. The `var` sits in the preheader, so an inner
                // loop's counter restarts on every outer iteration.
                let zero = b.const_int(REPEAT_COUNTER_BITS, 0);
                let counter = b.var(zero);
                let head = b.anonymous_block();
                b.br(head);
                b.append_to(head);
                let index = b.ld(counter);
                let limit = b.const_int(REPEAT_COUNTER_BITS, *count);
                let more = b.ult(index, limit);
                let first = b.anonymous_block();
                b.append_to(first);
                let one = b.const_int(REPEAT_COUNTER_BITS, 1);
                let next = b.add(index, one);
                b.st(counter, next);
                gen_initial_stmts(b, args, order, body)?;
                b.br(head);
                let exit = b.anonymous_block();
                b.append_to(head);
                b.br_cond(more, exit, first);
                b.append_to(exit);
            }
        }
    }
    Ok(())
}

/// Emit conditional drives for non-blocking assignments: each assignment
/// becomes a `drv ... if cond` where `cond` is the conjunction of the edge
/// condition and the enclosing `if` conditions.
fn gen_conditional_drives(
    b: &mut UnitBuilder,
    args: &HashMap<String, (Value, usize)>,
    env: &HashMap<String, (Value, usize)>,
    body: &[Stmt],
    condition: Option<Value>,
) -> Result<(), CompileError> {
    for stmt in body {
        match stmt {
            Stmt::Assign {
                target,
                value,
                delay_fs,
                ..
            } => {
                let (signal, width) = *args
                    .get(target)
                    .ok_or_else(|| err(format!("assignment to undeclared net '{}'", target)))?;
                let result = gen_expr(b, env, value, width)?;
                let delay = b.const_time(TimeValue::from_femtos(delay_fs.unwrap_or(0)));
                match condition {
                    Some(cond) => {
                        b.drv_cond(signal, result, delay, cond);
                    }
                    None => {
                        b.drv(signal, result, delay);
                    }
                }
            }
            Stmt::If {
                condition: if_cond,
                then_body,
                else_body,
            } => {
                let cond_value = gen_expr_bool(b, env, if_cond)?;
                let then_cond = match condition {
                    Some(outer) => b.and(outer, cond_value),
                    None => cond_value,
                };
                gen_conditional_drives(b, args, env, then_body, Some(then_cond))?;
                if !else_body.is_empty() {
                    let not_cond = b.not(cond_value);
                    let else_cond = match condition {
                        Some(outer) => b.and(outer, not_cond),
                        None => not_cond,
                    };
                    gen_conditional_drives(b, args, env, else_body, Some(else_cond))?;
                }
            }
            Stmt::Delay { .. } => {}
            Stmt::Repeat { .. } => {
                return Err(err("repeat loops are only supported in initial blocks"))
            }
        }
    }
    Ok(())
}

/// Fold blocking assignments into per-net values (combinational semantics).
fn fold_blocking(
    b: &mut UnitBuilder,
    env: &HashMap<String, (Value, usize)>,
    body: &[Stmt],
    values: &mut BTreeMap<String, Value>,
    max_delay: &mut u128,
) -> Result<(), CompileError> {
    for stmt in body {
        match stmt {
            Stmt::Assign {
                target,
                value,
                delay_fs,
                ..
            } => {
                if let Some(d) = delay_fs {
                    *max_delay = (*max_delay).max(*d);
                }
                // Reads of already-assigned nets see the folded value.
                let mut local_env = env.clone();
                for (name, &v) in values.iter() {
                    if let Some(entry) = local_env.get_mut(name) {
                        entry.0 = v;
                    }
                }
                let width = env
                    .get(target)
                    .map(|e| e.1)
                    .ok_or_else(|| err(format!("assignment to undeclared net '{}'", target)))?;
                let result = gen_expr(b, &local_env, value, width)?;
                values.insert(target.clone(), result);
            }
            Stmt::If {
                condition,
                then_body,
                else_body,
            } => {
                let cond = {
                    let mut local_env = env.clone();
                    for (name, &v) in values.iter() {
                        if let Some(entry) = local_env.get_mut(name) {
                            entry.0 = v;
                        }
                    }
                    gen_expr_bool(b, &local_env, condition)?
                };
                let mut then_values = values.clone();
                let mut else_values = values.clone();
                fold_blocking(b, env, then_body, &mut then_values, max_delay)?;
                fold_blocking(b, env, else_body, &mut else_values, max_delay)?;
                // Merge with a mux per net that differs.
                for (name, then_value) in &then_values {
                    let else_value = else_values[name];
                    if *then_value != else_value {
                        let choices = b.array(vec![else_value, *then_value]);
                        let merged = b.mux(choices, cond);
                        values.insert(name.clone(), merged);
                    }
                }
            }
            Stmt::Delay { .. } => {}
            Stmt::Repeat { .. } => {
                return Err(err("repeat loops are only supported in initial blocks"))
            }
        }
    }
    Ok(())
}

/// Generate an expression, adapted to `target_width` bits.
fn gen_expr(
    b: &mut UnitBuilder,
    env: &HashMap<String, (Value, usize)>,
    expr: &Expr,
    target_width: usize,
) -> Result<Value, CompileError> {
    let value = gen_expr_raw(b, env, expr, target_width)?;
    Ok(adapt_width(b, value, target_width))
}

/// Generate an expression as a single-bit condition.
fn gen_expr_bool(
    b: &mut UnitBuilder,
    env: &HashMap<String, (Value, usize)>,
    expr: &Expr,
) -> Result<Value, CompileError> {
    let value = gen_expr_raw(b, env, expr, 1)?;
    let width = b.unit().value_type(value).unwrap_int();
    if width == 1 {
        return Ok(value);
    }
    let zero = b.const_int(width, 0);
    Ok(b.neq(value, zero))
}

fn adapt_width(b: &mut UnitBuilder, value: Value, target_width: usize) -> Value {
    let width = b.unit().value_type(value).unwrap_int();
    if width == target_width {
        value
    } else if width < target_width {
        b.zext(value, target_width)
    } else {
        b.trunc(value, target_width)
    }
}

fn gen_expr_raw(
    b: &mut UnitBuilder,
    env: &HashMap<String, (Value, usize)>,
    expr: &Expr,
    hint_width: usize,
) -> Result<Value, CompileError> {
    Ok(match expr {
        Expr::Ident(name) => {
            env.get(name)
                .ok_or_else(|| err(format!("use of undeclared net '{}'", name)))?
                .0
        }
        Expr::Literal { value, width } => {
            let w = width.unwrap_or_else(|| hint_width.max(32).max(64 - value.leading_zeros() as usize));
            b.const_int(w.max(1), *value)
        }
        Expr::Unary(op, operand) => {
            let value = gen_expr_raw(b, env, operand, hint_width)?;
            match op {
                UnaryOp::Not => b.not(value),
                UnaryOp::Neg => b.neg(value),
                UnaryOp::LogicNot => {
                    let width = b.unit().value_type(value).unwrap_int();
                    let zero = b.const_int(width, 0);
                    b.eq(value, zero)
                }
            }
        }
        Expr::Binary(op, lhs, rhs) => {
            let mut a = gen_expr_raw(b, env, lhs, hint_width)?;
            let mut c = gen_expr_raw(b, env, rhs, hint_width)?;
            // Promote both operands to a common width.
            let wa = b.unit().value_type(a).unwrap_int();
            let wc = b.unit().value_type(c).unwrap_int();
            let width = wa.max(wc);
            a = adapt_width(b, a, width);
            c = adapt_width(b, c, width);
            match op {
                BinaryOp::Add => b.add(a, c),
                BinaryOp::Sub => b.sub(a, c),
                BinaryOp::Mul => b.umul(a, c),
                BinaryOp::Div => b.udiv(a, c),
                BinaryOp::Mod => b.urem(a, c),
                BinaryOp::And => b.and(a, c),
                BinaryOp::Or => b.or(a, c),
                BinaryOp::Xor => b.xor(a, c),
                BinaryOp::Eq => b.eq(a, c),
                BinaryOp::Neq => b.neq(a, c),
                BinaryOp::Lt => b.ult(a, c),
                BinaryOp::Le => b.ule(a, c),
                BinaryOp::Gt => b.ugt(a, c),
                BinaryOp::Ge => b.uge(a, c),
                BinaryOp::Shl => b.shl(a, c),
                BinaryOp::Shr => b.shr(a, c),
                BinaryOp::LogicAnd | BinaryOp::LogicOr => {
                    let zero = b.const_int(width, 0);
                    let a_bool = b.neq(a, zero);
                    let zero2 = b.const_int(width, 0);
                    let c_bool = b.neq(c, zero2);
                    if *op == BinaryOp::LogicAnd {
                        b.and(a_bool, c_bool)
                    } else {
                        b.or(a_bool, c_bool)
                    }
                }
            }
        }
        Expr::Conditional(cond, then_value, else_value) => {
            let cond = gen_expr_bool(b, env, cond)?;
            let mut t = gen_expr_raw(b, env, then_value, hint_width)?;
            let mut e = gen_expr_raw(b, env, else_value, hint_width)?;
            let wt = b.unit().value_type(t).unwrap_int();
            let we = b.unit().value_type(e).unwrap_int();
            let width = wt.max(we);
            t = adapt_width(b, t, width);
            e = adapt_width(b, e, width);
            let choices = b.array(vec![e, t]);
            b.mux(choices, cond)
        }
        Expr::BitSelect(operand, index) => {
            let value = gen_expr_raw(b, env, operand, hint_width)?;
            b.ext_slice(value, *index, 1)
        }
    })
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use llhd::value::ConstValue;
    use llhd::verifier::verify_module;
    use llhd_sim::api::EngineKind;
    use llhd_sim::{SimConfig, SimSession};

    /// Figure 3 of the paper: the accumulator plus its testbench, reduced to
    /// a handful of iterations.
    const ACC_SV: &str = r#"
        module acc (input clk, input [31:0] x, input en, output [31:0] q);
          logic [31:0] d;
          always_ff @(posedge clk) q <= d;
          always_comb begin
            d = q;
            if (en) d = q + x;
          end
        endmodule

        module acc_tb (output clk, output en, output [31:0] x, output [31:0] q);
          acc i_dut (.clk(clk), .x(x), .en(en), .q(q));
          initial begin
            en <= #2ns 1;
            x <= #2ns 1;
            repeat (8) begin
              clk <= #1ns 1;
              clk <= #2ns 0;
              #2ns;
            end
          end
        endmodule
    "#;

    #[test]
    fn compiles_and_verifies_the_accumulator() {
        let module = compile(ACC_SV).unwrap();
        assert!(verify_module(&module).is_ok(), "{:?}", verify_module(&module));
        assert!(module.unit_by_ident("acc").is_some());
        assert!(module.unit_by_ident("acc_tb").is_some());
        // One FF process, one comb process, one initial process.
        assert_eq!(
            module.units_of_kind(llhd::ir::UnitKind::Process).len(),
            3
        );
    }

    #[test]
    fn simulated_accumulator_accumulates() {
        let module = compile(ACC_SV).unwrap();
        let result = SimSession::builder(&module, "acc_tb")
            .config(SimConfig::until_nanos(100))
            .build()
            .unwrap()
            .run()
            .unwrap();
        let q_values: Vec<u64> = result
            .trace
            .changes_of("q")
            .filter_map(|e| e.value.to_u64())
            .collect();
        // With x = 1 and en = 1, q counts up by one per clock edge.
        assert!(q_values.len() >= 4, "q changes: {:?}", q_values);
        for window in q_values.windows(2) {
            assert_eq!(window[1], window[0] + 1, "q must accumulate: {:?}", q_values);
        }
    }

    /// `repeat (n) begin body end` as source text, or with `unrolled` the
    /// body written out `n` times: the reference the loop codegen is
    /// checked against.
    fn repeat_sv(n: usize, body: &str, unrolled: bool) -> String {
        if unrolled {
            body.repeat(n)
        } else {
            format!("repeat ({}) begin {} end ", n, body)
        }
    }

    /// A testbench around `stimulus(unrolled)`: an 8-bit counter `q`, a
    /// second net `r`, and a combinational follower so the stimulus drives
    /// something that reacts.
    fn loop_tb(stimulus: &str) -> String {
        format!(
            "module tb (output [7:0] q, output [7:0] r, output [7:0] s);
               assign s = q + r;
               initial begin {} end
             endmodule",
            stimulus
        )
    }

    type Canonical = Vec<(u128, String, ConstValue)>;

    fn canonical_on(source: &str, engine: EngineKind) -> Canonical {
        let module = compile(source).unwrap();
        verify_module(&module).unwrap();
        SimSession::builder(&module, "tb")
            .engine(engine)
            .config(SimConfig::until_nanos(1_000))
            .build()
            .unwrap()
            .run()
            .unwrap()
            .trace
            .canonical()
    }

    /// The looped and the source-unrolled form of one stimulus agree on
    /// both engines; returns the trace they agree on.
    fn looped_equals_unrolled(stimulus: impl Fn(bool) -> String) -> Canonical {
        let looped = loop_tb(&stimulus(false));
        let unrolled = loop_tb(&stimulus(true));
        let reference = canonical_on(&unrolled, EngineKind::Interpret);
        for engine in [EngineKind::Interpret, EngineKind::Compile] {
            assert_eq!(
                canonical_on(&looped, engine),
                reference,
                "{:?} diverges from the unrolled source:\n{}",
                engine,
                looped
            );
        }
        assert_eq!(canonical_on(&unrolled, EngineKind::Compile), reference);
        reference
    }

    fn values_of(trace: &Canonical, signal: &str) -> Vec<u64> {
        trace
            .iter()
            .filter(|(_, name, _)| name.ends_with(signal))
            .filter_map(|(_, _, value)| value.to_u64())
            .collect()
    }

    const COUNT_UP: &str = "q <= #1ns q + 1; #2ns; ";

    #[test]
    fn repeat_is_a_loop_not_a_copy() {
        let size = |n| {
            let module = compile(&loop_tb(&repeat_sv(n, COUNT_UP, false))).unwrap();
            let unit = module.unit(module.unit_by_ident("tb_initial_1").unwrap());
            (unit.num_total_insts(), unit.blocks().len())
        };
        assert_eq!(size(2), size(2_000_000));
        assert_eq!(size(2).1, 5, "entry, head, body, after-delay, exit");
    }

    #[test]
    fn repeat_zero_skips_the_body() {
        let trace = looped_equals_unrolled(|u| {
            format!(
                "r <= #1ns 5; {} q <= #1ns 7;",
                repeat_sv(0, "q <= #1ns 9; #2ns; ", u)
            )
        });
        assert_eq!(values_of(&trace, "q"), [7]);
        assert_eq!(values_of(&trace, "r"), [5]);
    }

    #[test]
    fn repeat_one_runs_the_body_once() {
        let trace = looped_equals_unrolled(|u| repeat_sv(1, COUNT_UP, u));
        assert_eq!(values_of(&trace, "q"), [1]);
    }

    #[test]
    fn nested_repeat_restarts_the_inner_counter() {
        let trace = looped_equals_unrolled(|u| {
            let inner = repeat_sv(4, COUNT_UP, u);
            repeat_sv(3, &format!("r <= #1ns r + 1; {} #1ns; ", inner), u)
        });
        assert_eq!(values_of(&trace, "q"), (1..=12).collect::<Vec<u64>>());
        assert_eq!(values_of(&trace, "r"), [1, 2, 3]);
    }

    #[test]
    fn repeat_without_a_delay_runs_in_one_instant() {
        // Every iteration probes q before any drive lands: q ends at 1.
        let trace = looped_equals_unrolled(|u| repeat_sv(5, "q <= #1ns q + 1; ", u));
        assert_eq!(values_of(&trace, "q"), [1]);
    }

    #[test]
    fn statements_around_a_repeat_run_before_and_after_it() {
        let trace = looped_equals_unrolled(|u| {
            format!(
                "q <= #1ns 100; #2ns; {} r <= #1ns q; #2ns; q <= #1ns 0;",
                repeat_sv(3, COUNT_UP, u)
            )
        });
        assert_eq!(values_of(&trace, "q"), [100, 101, 102, 103, 0]);
        assert_eq!(values_of(&trace, "r"), [103]);
    }

    #[test]
    fn if_inside_a_repeat_sees_each_iteration() {
        let trace = looped_equals_unrolled(|u| {
            repeat_sv(6, &format!("if (q[0]) r <= #1ns r + 1; {}", COUNT_UP), u)
        });
        assert_eq!(values_of(&trace, "q"), [1, 2, 3, 4, 5, 6]);
        assert_eq!(values_of(&trace, "r"), [1, 2, 3]);
    }

    /// `repeat (n) body` ≡ `body` written out `n` times in the source, over
    /// a grid of counts, bodies and nestings.
    #[test]
    fn repeat_equals_the_unrolled_source() {
        let bodies = [
            COUNT_UP,
            "q <= #1ns q + 3; r <= #2ns q ^ r; #3ns; ",
            "q <= #1ns q + 1; #1ns; r <= #1ns s; #1ns; ",
            "if (q[1]) r <= #1ns r + q; else r <= #1ns r + 1; q <= #1ns q + 1; #2ns; ",
            "q <= #1ns q + 1; ",
        ];
        for outer in [0, 1, 2, 7] {
            for inner in [0, 1, 3] {
                for (i, body) in bodies.iter().enumerate() {
                    let tail = bodies[(i + 1) % bodies.len()];
                    looped_equals_unrolled(|u| {
                        let nested = format!("{} {}", body, repeat_sv(inner, tail, u));
                        format!(
                            "r <= #1ns 2; #1ns; {} q <= #1ns s;",
                            repeat_sv(outer, &nested, u)
                        )
                    });
                }
            }
        }
    }

    #[test]
    fn continuous_assign_becomes_entity_dataflow() {
        let module = compile(
            r#"
            module xor_gate (input a, input b, output y);
              assign y = a ^ b;
            endmodule
            "#,
        )
        .unwrap();
        assert!(verify_module(&module).is_ok());
        let unit = module.unit(module.unit_by_ident("xor_gate").unwrap());
        assert_eq!(unit.kind(), llhd::ir::UnitKind::Entity);
        assert!(unit
            .all_insts()
            .iter()
            .any(|&i| unit.inst_data(i).opcode == llhd::ir::Opcode::Xor));
    }

    #[test]
    fn unknown_nets_are_reported() {
        let result = compile(
            r#"
            module bad (input a, output y);
              assign y = a & missing;
            endmodule
            "#,
        );
        assert!(result.is_err());
    }
}
