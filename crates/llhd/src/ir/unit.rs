//! Units: functions, processes, and entities.

use super::{Block, ExtUnit, ExtUnitData, Inst, InstData, Opcode, Signature, UnitName, Value};
use crate::ty::{self, Type};
use crate::value::ConstValue;
use std::fmt;

/// The three kinds of units in LLHD (Table 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnitKind {
    /// A function: control flow, immediate execution, user-defined SSA
    /// mapping.
    Function,
    /// A process: control flow, timed execution, behavioural circuit
    /// description.
    Process,
    /// An entity: data flow, timed execution, structural circuit
    /// description.
    Entity,
}

impl UnitKind {
    /// Whether the unit executes as control flow over basic blocks.
    pub fn is_control_flow(self) -> bool {
        matches!(self, UnitKind::Function | UnitKind::Process)
    }

    /// Whether the unit executes as a data flow graph.
    pub fn is_data_flow(self) -> bool {
        self == UnitKind::Entity
    }

    /// Whether the unit executes in zero time (immediate timing model).
    pub fn is_immediate(self) -> bool {
        self == UnitKind::Function
    }

    /// Whether the unit persists across time steps (timed timing model).
    pub fn is_timed(self) -> bool {
        !self.is_immediate()
    }

    /// The assembly keyword introducing this unit.
    pub fn keyword(self) -> &'static str {
        match self {
            UnitKind::Function => "func",
            UnitKind::Process => "proc",
            UnitKind::Entity => "entity",
        }
    }
}

impl fmt::Display for UnitKind {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        write!(f, "{}", self.keyword())
    }
}

/// How a value came into existence.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ValueDef {
    /// The value is argument `n` of the unit (inputs followed by outputs).
    Arg(usize),
    /// The value is the result of an instruction.
    Inst(Inst),
    /// The value has been invalidated (its defining instruction was
    /// removed).
    Invalid,
}

/// Data associated with an SSA value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ValueData {
    /// The type of the value.
    pub ty: Type,
    /// The definition site.
    pub def: ValueDef,
    /// An optional human-readable name hint.
    pub name: Option<String>,
}

/// Data associated with a basic block.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BlockData {
    /// An optional human-readable name.
    pub name: Option<String>,
    /// The instructions of the block, in execution order.
    insts: Vec<Inst>,
}

/// A function, process, or entity.
///
/// Owns all values, blocks, and instructions of the unit. Entities are
/// modeled as a unit with exactly one block and no terminator; their
/// instructions form a data flow graph whose execution order is implied by
/// value dependencies.
#[derive(Clone, PartialEq, Debug)]
pub struct UnitData {
    kind: UnitKind,
    name: UnitName,
    sig: Signature,
    values: Vec<Option<ValueData>>,
    insts: Vec<Option<InstData>>,
    inst_results: Vec<Option<Value>>,
    inst_blocks: Vec<Option<Block>>,
    blocks: Vec<Option<BlockData>>,
    block_order: Vec<Block>,
    ext_units: Vec<ExtUnitData>,
}

impl UnitData {
    /// Create a new, empty unit. Argument values for the signature's inputs
    /// and outputs are created immediately; entities and processes receive
    /// them in the order inputs-then-outputs.
    pub fn new(kind: UnitKind, name: UnitName, sig: Signature) -> Self {
        let mut unit = UnitData {
            kind,
            name,
            sig: sig.clone(),
            values: vec![],
            insts: vec![],
            inst_results: vec![],
            inst_blocks: vec![],
            blocks: vec![],
            block_order: vec![],
            ext_units: vec![],
        };
        for i in 0..sig.num_args() {
            unit.values.push(Some(ValueData {
                ty: sig.arg_type(i),
                def: ValueDef::Arg(i),
                name: None,
            }));
        }
        // Entities have a single implicit body block.
        if kind == UnitKind::Entity {
            unit.create_block(Some("body".to_string()));
        }
        unit
    }

    /// The unit kind.
    pub fn kind(&self) -> UnitKind {
        self.kind
    }

    /// The unit name.
    pub fn name(&self) -> &UnitName {
        &self.name
    }

    /// Rename the unit.
    pub fn set_name(&mut self, name: UnitName) {
        self.name = name;
    }

    /// The unit signature.
    pub fn sig(&self) -> &Signature {
        &self.sig
    }

    // ----- arguments ------------------------------------------------------

    /// The value bound to argument `index` (inputs followed by outputs).
    pub fn arg_value(&self, index: usize) -> Value {
        assert!(index < self.sig.num_args(), "argument index out of range");
        Value::from_index(index)
    }

    /// The values bound to the input arguments.
    pub fn input_args(&self) -> Vec<Value> {
        (0..self.sig.inputs().len()).map(Value::from_index).collect()
    }

    /// The values bound to the output arguments.
    pub fn output_args(&self) -> Vec<Value> {
        (self.sig.inputs().len()..self.sig.num_args())
            .map(Value::from_index)
            .collect()
    }

    /// All argument values.
    pub fn args(&self) -> Vec<Value> {
        (0..self.sig.num_args()).map(Value::from_index).collect()
    }

    /// Whether `value` is an argument of the unit.
    pub fn is_arg(&self, value: Value) -> bool {
        matches!(self.value_def(value), ValueDef::Arg(_))
    }

    // ----- values ---------------------------------------------------------

    fn value_data(&self, value: Value) -> &ValueData {
        self.values[value.index()]
            .as_ref()
            .expect("value has been removed")
    }

    /// The type of a value.
    pub fn value_type(&self, value: Value) -> Type {
        self.value_data(value).ty.clone()
    }

    /// The definition site of a value.
    pub fn value_def(&self, value: Value) -> ValueDef {
        self.value_data(value).def
    }

    /// The optional name hint of a value.
    pub fn value_name(&self, value: Value) -> Option<&str> {
        self.value_data(value).name.as_deref()
    }

    /// Attach a name hint to a value.
    pub fn set_value_name(&mut self, value: Value, name: impl Into<String>) {
        if let Some(data) = self.values[value.index()].as_mut() {
            data.name = Some(name.into());
        }
    }

    /// Whether the handle refers to a live value.
    pub fn has_value(&self, value: Value) -> bool {
        value.index() < self.values.len() && self.values[value.index()].is_some()
    }

    /// An exclusive upper bound on the raw indices of this unit's values.
    /// Lets executors allocate dense side tables indexed by
    /// [`Value::index`] (holes from removed values are included).
    pub fn num_value_slots(&self) -> usize {
        self.values.len()
    }

    /// An exclusive upper bound on the raw indices of this unit's
    /// instructions, for dense side tables indexed by [`Inst::index`].
    pub fn num_inst_slots(&self) -> usize {
        self.insts.len()
    }

    /// An exclusive upper bound on the raw indices of this unit's blocks,
    /// for dense side tables indexed by [`Block::index`] (holes from
    /// removed blocks are included).
    pub fn num_block_slots(&self) -> usize {
        self.blocks.len()
    }

    /// All live values of the unit.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_some())
            .map(|(i, _)| Value::from_index(i))
    }

    /// If `value` is defined by a `const` instruction, return its constant.
    pub fn get_const(&self, value: Value) -> Option<&ConstValue> {
        match self.value_def(value) {
            ValueDef::Inst(inst) => {
                let data = self.inst_data(inst);
                if data.opcode == Opcode::Const {
                    data.konst.as_ref()
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// All instructions that use `value` as an operand.
    pub fn value_uses(&self, value: Value) -> Vec<Inst> {
        let mut uses = vec![];
        for inst in self.all_insts() {
            if self.inst_data(inst).operands().any(|v| v == value) {
                uses.push(inst);
            }
        }
        uses
    }

    /// Replace all uses of `from` with `to`. Returns the number of operand
    /// slots rewritten.
    pub fn replace_value_uses(&mut self, from: Value, to: Value) -> usize {
        let mut count = 0;
        for data in self.insts.iter_mut().flatten() {
            count += data.replace_value(from, to);
        }
        count
    }

    // ----- blocks ---------------------------------------------------------

    /// Create a new basic block appended to the end of the unit.
    pub fn create_block(&mut self, name: Option<String>) -> Block {
        let bb = Block::from_index(self.blocks.len());
        self.blocks.push(Some(BlockData {
            name,
            insts: vec![],
        }));
        self.block_order.push(bb);
        bb
    }

    /// Create a new basic block inserted immediately after `after`.
    pub fn create_block_after(&mut self, name: Option<String>, after: Block) -> Block {
        let bb = Block::from_index(self.blocks.len());
        self.blocks.push(Some(BlockData {
            name,
            insts: vec![],
        }));
        let pos = self
            .block_order
            .iter()
            .position(|&b| b == after)
            .map(|p| p + 1)
            .unwrap_or(self.block_order.len());
        self.block_order.insert(pos, bb);
        bb
    }

    /// Move `block` to the end of the layout order.
    pub fn move_block_to_end(&mut self, block: Block) {
        self.block_order.retain(|&b| b != block);
        self.block_order.push(block);
    }

    /// The blocks of the unit in layout order.
    pub fn blocks(&self) -> Vec<Block> {
        self.block_order.clone()
    }

    /// The blocks of the unit in layout order, without copying.
    pub fn blocks_slice(&self) -> &[Block] {
        &self.block_order
    }

    /// The entry block (the first block in layout order).
    pub fn entry_block(&self) -> Option<Block> {
        self.block_order.first().copied()
    }

    /// The name of a block, if it has one.
    pub fn block_name(&self, block: Block) -> Option<&str> {
        self.block_data(block).name.as_deref()
    }

    /// Set the name of a block.
    pub fn set_block_name(&mut self, block: Block, name: impl Into<String>) {
        self.block_data_mut(block).name = Some(name.into());
    }

    /// Whether the handle refers to a live block.
    pub fn has_block(&self, block: Block) -> bool {
        block.index() < self.blocks.len() && self.blocks[block.index()].is_some()
    }

    fn block_data(&self, block: Block) -> &BlockData {
        self.blocks[block.index()]
            .as_ref()
            .expect("block has been removed")
    }

    fn block_data_mut(&mut self, block: Block) -> &mut BlockData {
        self.blocks[block.index()]
            .as_mut()
            .expect("block has been removed")
    }

    /// Remove an (empty or fully dead) block. The caller must ensure no
    /// branches target the block anymore; its remaining instructions are
    /// removed along with it.
    pub fn remove_block(&mut self, block: Block) {
        let insts = self.block_data(block).insts.clone();
        for inst in insts {
            self.remove_inst(inst);
        }
        self.blocks[block.index()] = None;
        self.block_order.retain(|&b| b != block);
    }

    /// The instructions of a block in execution order.
    pub fn insts(&self, block: Block) -> Vec<Inst> {
        self.block_data(block).insts.clone()
    }

    /// The instructions of a block in execution order, without copying.
    /// Preferred on hot paths (interpreters, compilers) over [`Self::insts`].
    pub fn insts_slice(&self, block: Block) -> &[Inst] {
        &self.block_data(block).insts
    }

    /// The number of instructions in a block.
    pub fn num_insts(&self, block: Block) -> usize {
        self.block_data(block).insts.len()
    }

    /// All live instructions in the unit, in block layout order.
    pub fn all_insts(&self) -> Vec<Inst> {
        self.block_order
            .iter()
            .flat_map(|&bb| self.block_data(bb).insts.iter().copied())
            .collect()
    }

    /// The total number of live instructions.
    pub fn num_total_insts(&self) -> usize {
        self.insts.iter().filter(|i| i.is_some()).count()
    }

    /// The terminator instruction of a block, if its last instruction is a
    /// terminator.
    pub fn terminator(&self, block: Block) -> Option<Inst> {
        let last = *self.block_data(block).insts.last()?;
        if self.inst_data(last).opcode.is_terminator() {
            Some(last)
        } else {
            None
        }
    }

    // ----- instructions ---------------------------------------------------

    /// Append an instruction to a block. If `result_ty` is given and not
    /// void, a result value of that type is created.
    pub fn append_inst(
        &mut self,
        block: Block,
        data: InstData,
        result_ty: Option<Type>,
    ) -> Inst {
        let inst = self.alloc_inst(data, result_ty);
        self.block_data_mut(block).insts.push(inst);
        self.inst_blocks[inst.index()] = Some(block);
        inst
    }

    /// Insert an instruction immediately before another instruction in the
    /// same block.
    pub fn insert_inst_before(
        &mut self,
        before: Inst,
        data: InstData,
        result_ty: Option<Type>,
    ) -> Inst {
        let block = self.inst_block(before).expect("inst not in a block");
        let inst = self.alloc_inst(data, result_ty);
        let bd = self.block_data_mut(block);
        let pos = bd.insts.iter().position(|&i| i == before).unwrap();
        bd.insts.insert(pos, inst);
        self.inst_blocks[inst.index()] = Some(block);
        inst
    }

    /// Insert an instruction at the beginning of a block.
    pub fn prepend_inst(
        &mut self,
        block: Block,
        data: InstData,
        result_ty: Option<Type>,
    ) -> Inst {
        let inst = self.alloc_inst(data, result_ty);
        self.block_data_mut(block).insts.insert(0, inst);
        self.inst_blocks[inst.index()] = Some(block);
        inst
    }

    fn alloc_inst(&mut self, data: InstData, result_ty: Option<Type>) -> Inst {
        let inst = Inst::from_index(self.insts.len());
        let result = match result_ty {
            Some(ty) if !ty.is_void() => {
                let value = Value::from_index(self.values.len());
                self.values.push(Some(ValueData {
                    ty,
                    def: ValueDef::Inst(inst),
                    name: None,
                }));
                Some(value)
            }
            _ => None,
        };
        self.insts.push(Some(data));
        self.inst_results.push(result);
        self.inst_blocks.push(None);
        inst
    }

    /// The payload of an instruction.
    pub fn inst_data(&self, inst: Inst) -> &InstData {
        self.insts[inst.index()]
            .as_ref()
            .expect("instruction has been removed")
    }

    /// Mutable access to the payload of an instruction.
    pub fn inst_data_mut(&mut self, inst: Inst) -> &mut InstData {
        self.insts[inst.index()]
            .as_mut()
            .expect("instruction has been removed")
    }

    /// Whether the handle refers to a live instruction.
    pub fn has_inst(&self, inst: Inst) -> bool {
        inst.index() < self.insts.len() && self.insts[inst.index()].is_some()
    }

    /// The result value of an instruction, if it has one.
    pub fn get_inst_result(&self, inst: Inst) -> Option<Value> {
        self.inst_results[inst.index()]
    }

    /// The result value of an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction has no result.
    pub fn inst_result(&self, inst: Inst) -> Value {
        self.get_inst_result(inst)
            .expect("instruction has no result")
    }

    /// The block containing an instruction.
    pub fn inst_block(&self, inst: Inst) -> Option<Block> {
        self.inst_blocks[inst.index()]
    }

    /// Remove an instruction from the unit. Its result value (if any) is
    /// invalidated; callers must have replaced all uses beforehand.
    pub fn remove_inst(&mut self, inst: Inst) {
        if let Some(block) = self.inst_blocks[inst.index()] {
            self.block_data_mut(block).insts.retain(|&i| i != inst);
        }
        if let Some(result) = self.inst_results[inst.index()] {
            if let Some(data) = self.values[result.index()].as_mut() {
                data.def = ValueDef::Invalid;
            }
            self.values[result.index()] = None;
        }
        self.insts[inst.index()] = None;
        self.inst_results[inst.index()] = None;
        self.inst_blocks[inst.index()] = None;
    }

    /// Move an instruction so it becomes the last non-terminator instruction
    /// of `block` (i.e. immediately before the terminator, or at the end if
    /// the block has no terminator).
    pub fn move_inst_before_terminator(&mut self, inst: Inst, block: Block) {
        self.detach_inst(inst);
        let has_term = self.terminator(block).is_some();
        let bd = self.block_data_mut(block);
        if has_term {
            let pos = bd.insts.len() - 1;
            bd.insts.insert(pos, inst);
        } else {
            bd.insts.push(inst);
        }
        self.inst_blocks[inst.index()] = Some(block);
    }

    /// Move an instruction to the end of `block`.
    pub fn move_inst_to_end(&mut self, inst: Inst, block: Block) {
        self.detach_inst(inst);
        self.block_data_mut(block).insts.push(inst);
        self.inst_blocks[inst.index()] = Some(block);
    }

    /// Move an instruction immediately before another instruction.
    pub fn move_inst_before(&mut self, inst: Inst, before: Inst) {
        let block = self.inst_block(before).expect("target not in a block");
        self.detach_inst(inst);
        let bd = self.block_data_mut(block);
        let pos = bd.insts.iter().position(|&i| i == before).unwrap();
        bd.insts.insert(pos, inst);
        self.inst_blocks[inst.index()] = Some(block);
    }

    fn detach_inst(&mut self, inst: Inst) {
        if let Some(block) = self.inst_blocks[inst.index()] {
            self.block_data_mut(block).insts.retain(|&i| i != inst);
        }
        self.inst_blocks[inst.index()] = None;
    }

    // ----- external units -------------------------------------------------

    /// Declare an external unit (a call or instantiation target), returning
    /// a handle to reference it from `call` and `inst` instructions.
    pub fn add_ext_unit(&mut self, name: UnitName, sig: Signature) -> ExtUnit {
        // Reuse an existing identical declaration.
        for (i, data) in self.ext_units.iter().enumerate() {
            if data.name == name && data.sig == sig {
                return ExtUnit::from_index(i);
            }
        }
        let ext = ExtUnit::from_index(self.ext_units.len());
        self.ext_units.push(ExtUnitData { name, sig });
        ext
    }

    /// The data of an external unit declaration.
    pub fn ext_unit_data(&self, ext: ExtUnit) -> &ExtUnitData {
        &self.ext_units[ext.index()]
    }

    /// All external unit declarations.
    pub fn ext_units(&self) -> impl Iterator<Item = (ExtUnit, &ExtUnitData)> {
        self.ext_units
            .iter()
            .enumerate()
            .map(|(i, d)| (ExtUnit::from_index(i), d))
    }

    // ----- convenience ----------------------------------------------------

    /// The canonical display name of a value: its name hint or `vN`.
    pub fn value_display(&self, value: Value) -> String {
        match self.value_name(value) {
            Some(name) => format!("%{}", name),
            None => format!("%{}", value.index()),
        }
    }

    /// The canonical display name of a block: its name hint or `bbN`.
    pub fn block_display(&self, block: Block) -> String {
        match self.block_name(block) {
            Some(name) => format!("%{}", name),
            None => format!("%bb{}", block.index()),
        }
    }

    /// The default result type an instruction of `opcode` with the given
    /// operands would produce. This is the single source of truth used by
    /// the builder, the parser, and the bitcode reader.
    pub fn default_result_type(
        &self,
        opcode: Opcode,
        args: &[Value],
        imms: &[usize],
        konst: Option<&ConstValue>,
        ext_unit: Option<ExtUnit>,
    ) -> Type {
        let arg_ty = |i: usize| self.value_type(args[i]);
        match opcode {
            Opcode::Const => konst.expect("const needs a value").ty(),
            Opcode::Alias | Opcode::Not | Opcode::Neg => arg_ty(0),
            Opcode::Array => ty::array_ty(args.len(), arg_ty(0)),
            Opcode::Struct => ty::struct_ty(args.iter().map(|&a| self.value_type(a)).collect()),
            Opcode::Add
            | Opcode::Sub
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Smul
            | Opcode::Sdiv
            | Opcode::Smod
            | Opcode::Srem
            | Opcode::Umul
            | Opcode::Udiv
            | Opcode::Umod
            | Opcode::Urem
            | Opcode::Shl
            | Opcode::Shr => arg_ty(0),
            Opcode::Eq
            | Opcode::Neq
            | Opcode::Slt
            | Opcode::Sgt
            | Opcode::Sle
            | Opcode::Sge
            | Opcode::Ult
            | Opcode::Ugt
            | Opcode::Ule
            | Opcode::Uge => ty::int_ty(1),
            Opcode::Zext | Opcode::Sext | Opcode::Trunc => ty::int_ty(imms[0]),
            Opcode::Mux => {
                let array = arg_ty(0);
                let (_, elem) = array.unwrap_array();
                elem.clone()
            }
            Opcode::InsField | Opcode::InsSlice => arg_ty(0),
            Opcode::ExtField => {
                let t = arg_ty(0);
                Self::projected_type(&t, imms[0], 1, true)
            }
            Opcode::ExtSlice => {
                let t = arg_ty(0);
                Self::projected_type(&t, imms[0], imms[1], false)
            }
            Opcode::Sig => ty::signal_ty(arg_ty(0)),
            Opcode::Prb => arg_ty(0).unwrap_signal().clone(),
            Opcode::Del => arg_ty(0),
            Opcode::Var | Opcode::Halloc => ty::pointer_ty(arg_ty(0)),
            Opcode::Ld => arg_ty(0).unwrap_pointer().clone(),
            Opcode::Call => ext_unit
                .map(|e| self.ext_unit_data(e).sig.return_type())
                .unwrap_or_else(ty::void_ty),
            Opcode::Phi => arg_ty(0),
            _ => ty::void_ty(),
        }
    }

    /// Compute the type that results from projecting element/slice accesses
    /// through signals and pointers: `extf` on an `i32$` array signal yields
    /// a signal of the element type, etc.
    fn projected_type(ty_: &Type, _offset: usize, length: usize, field: bool) -> Type {
        use crate::ty::TypeKind;
        let wrap = |inner: Type| -> Type {
            match ty_.kind() {
                TypeKind::Signal(_) => ty::signal_ty(inner),
                TypeKind::Pointer(_) => ty::pointer_ty(inner),
                _ => inner,
            }
        };
        let base = ty_.strip();
        match base.kind() {
            TypeKind::Array(_, elem) => {
                if field {
                    wrap(elem.clone())
                } else {
                    wrap(ty::array_ty(length, elem.clone()))
                }
            }
            TypeKind::Struct(fields) => wrap(fields[_offset].clone()),
            TypeKind::Int(_) => {
                if field {
                    wrap(ty::int_ty(1))
                } else {
                    wrap(ty::int_ty(length))
                }
            }
            TypeKind::Logic(_) => {
                if field {
                    wrap(ty::logic_ty(1))
                } else {
                    wrap(ty::logic_ty(length))
                }
            }
            _ => wrap(base.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Signature;
    use crate::ty::*;

    fn simple_func() -> UnitData {
        UnitData::new(
            UnitKind::Function,
            UnitName::global("check"),
            Signature::new_func(vec![int_ty(32), int_ty(32)], void_ty()),
        )
    }

    #[test]
    fn unit_kind_properties() {
        assert!(UnitKind::Function.is_control_flow());
        assert!(UnitKind::Process.is_control_flow());
        assert!(UnitKind::Entity.is_data_flow());
        assert!(UnitKind::Function.is_immediate());
        assert!(UnitKind::Process.is_timed());
        assert!(UnitKind::Entity.is_timed());
        assert_eq!(UnitKind::Entity.keyword(), "entity");
    }

    #[test]
    fn arguments_become_values() {
        let unit = simple_func();
        assert_eq!(unit.args().len(), 2);
        assert_eq!(unit.value_type(unit.arg_value(0)), int_ty(32));
        assert!(unit.is_arg(unit.arg_value(1)));
        assert_eq!(unit.value_def(unit.arg_value(1)), ValueDef::Arg(1));
    }

    #[test]
    fn entity_has_body_block() {
        let entity = UnitData::new(
            UnitKind::Entity,
            UnitName::global("top"),
            Signature::new_entity(vec![signal_ty(int_ty(1))], vec![signal_ty(int_ty(1))]),
        );
        assert_eq!(entity.blocks().len(), 1);
        assert!(entity.entry_block().is_some());
        assert_eq!(entity.input_args().len(), 1);
        assert_eq!(entity.output_args().len(), 1);
    }

    #[test]
    fn append_and_remove_insts() {
        let mut unit = simple_func();
        let bb = unit.create_block(Some("entry".into()));
        let a = unit.arg_value(0);
        let b = unit.arg_value(1);
        let add = unit.append_inst(bb, InstData::new(Opcode::Add, vec![a, b]), Some(int_ty(32)));
        let result = unit.inst_result(add);
        assert_eq!(unit.value_type(result), int_ty(32));
        assert_eq!(unit.value_def(result), ValueDef::Inst(add));
        assert_eq!(unit.insts(bb), vec![add]);
        assert_eq!(unit.inst_block(add), Some(bb));
        assert_eq!(unit.value_uses(a), vec![add]);

        unit.remove_inst(add);
        assert!(unit.insts(bb).is_empty());
        assert!(!unit.has_inst(add));
        assert!(!unit.has_value(result));
    }

    #[test]
    fn replace_value_uses() {
        let mut unit = simple_func();
        let bb = unit.create_block(None);
        let a = unit.arg_value(0);
        let b = unit.arg_value(1);
        let add = unit.append_inst(bb, InstData::new(Opcode::Add, vec![a, a]), Some(int_ty(32)));
        assert_eq!(unit.replace_value_uses(a, b), 2);
        assert_eq!(unit.inst_data(add).args, vec![b, b]);
    }

    #[test]
    fn terminator_detection() {
        let mut unit = simple_func();
        let bb0 = unit.create_block(None);
        let bb1 = unit.create_block(None);
        assert_eq!(unit.terminator(bb0), None);
        let mut br = InstData::new(Opcode::Br, vec![]);
        br.blocks = vec![bb1];
        let term = unit.append_inst(bb0, br, None);
        assert_eq!(unit.terminator(bb0), Some(term));
        let ret = unit.append_inst(bb1, InstData::new(Opcode::Ret, vec![]), None);
        assert_eq!(unit.terminator(bb1), Some(ret));
    }

    #[test]
    fn block_ordering_and_removal() {
        let mut unit = simple_func();
        let bb0 = unit.create_block(Some("a".into()));
        let bb2 = unit.create_block(Some("c".into()));
        let bb1 = unit.create_block_after(Some("b".into()), bb0);
        assert_eq!(unit.blocks(), vec![bb0, bb1, bb2]);
        assert_eq!(unit.entry_block(), Some(bb0));
        unit.remove_block(bb1);
        assert_eq!(unit.blocks(), vec![bb0, bb2]);
        assert!(!unit.has_block(bb1));
        unit.move_block_to_end(bb0);
        assert_eq!(unit.blocks(), vec![bb2, bb0]);
    }

    #[test]
    fn instruction_movement() {
        let mut unit = simple_func();
        let bb0 = unit.create_block(None);
        let bb1 = unit.create_block(None);
        let a = unit.arg_value(0);
        let add = unit.append_inst(bb0, InstData::new(Opcode::Add, vec![a, a]), Some(int_ty(32)));
        let ret = unit.append_inst(bb1, InstData::new(Opcode::Ret, vec![]), None);
        unit.move_inst_before_terminator(add, bb1);
        assert_eq!(unit.insts(bb0), vec![]);
        assert_eq!(unit.insts(bb1), vec![add, ret]);
        assert_eq!(unit.inst_block(add), Some(bb1));
        unit.move_inst_before(add, ret);
        assert_eq!(unit.insts(bb1), vec![add, ret]);
    }

    #[test]
    fn ext_unit_deduplication() {
        let mut unit = simple_func();
        let sig = Signature::new_func(vec![int_ty(32)], void_ty());
        let e1 = unit.add_ext_unit(UnitName::global("f"), sig.clone());
        let e2 = unit.add_ext_unit(UnitName::global("f"), sig.clone());
        let e3 = unit.add_ext_unit(UnitName::global("g"), sig);
        assert_eq!(e1, e2);
        assert_ne!(e1, e3);
        assert_eq!(unit.ext_unit_data(e3).name, UnitName::global("g"));
    }

    #[test]
    fn const_lookup() {
        let mut unit = simple_func();
        let bb = unit.create_block(None);
        let c = unit.append_inst(
            bb,
            InstData::constant(ConstValue::int(32, 42)),
            Some(int_ty(32)),
        );
        let v = unit.inst_result(c);
        assert_eq!(unit.get_const(v), Some(&ConstValue::int(32, 42)));
        assert_eq!(unit.get_const(unit.arg_value(0)), None);
    }

    #[test]
    fn value_naming() {
        let mut unit = simple_func();
        let a = unit.arg_value(0);
        assert_eq!(unit.value_display(a), "%0");
        unit.set_value_name(a, "x");
        assert_eq!(unit.value_name(a), Some("x"));
        assert_eq!(unit.value_display(a), "%x");
    }

    #[test]
    fn default_result_types() {
        let mut unit = simple_func();
        let _bb = unit.create_block(None);
        let a = unit.arg_value(0);
        assert_eq!(
            unit.default_result_type(Opcode::Add, &[a, a], &[], None, None),
            int_ty(32)
        );
        assert_eq!(
            unit.default_result_type(Opcode::Eq, &[a, a], &[], None, None),
            int_ty(1)
        );
        assert_eq!(
            unit.default_result_type(Opcode::Sig, &[a], &[], None, None),
            signal_ty(int_ty(32))
        );
        assert_eq!(
            unit.default_result_type(Opcode::Var, &[a], &[], None, None),
            pointer_ty(int_ty(32))
        );
        assert_eq!(
            unit.default_result_type(Opcode::Zext, &[a], &[64], None, None),
            int_ty(64)
        );
        assert_eq!(
            unit.default_result_type(
                Opcode::Const,
                &[],
                &[],
                Some(&ConstValue::int(8, 1)),
                None
            ),
            int_ty(8)
        );
    }
}
