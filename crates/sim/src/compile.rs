//! Flattening of taskgraph programs into executable instruction streams.

use rcarb_taskgraph::id::{ArbiterId, ChannelId, SegmentId, VarId};
use rcarb_taskgraph::program::{BinOp, Expr, Op, Program};

/// One flat instruction. Structured loops and branches become explicit
/// jumps; everything else mirrors [`Op`].
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst := value` (1 cycle).
    Set {
        /// Destination variable.
        dst: VarId,
        /// Value expression.
        value: ExprId,
    },
    /// Busy computation (`cycles` cycles).
    Compute {
        /// Cycle count.
        cycles: u32,
    },
    /// Memory read (1 cycle).
    MemRead {
        /// Segment.
        segment: SegmentId,
        /// Address expression.
        addr: ExprId,
        /// Destination variable.
        dst: VarId,
    },
    /// Memory write (1 cycle).
    MemWrite {
        /// Segment.
        segment: SegmentId,
        /// Address expression.
        addr: ExprId,
        /// Value expression.
        value: ExprId,
    },
    /// Channel send (1 cycle).
    Send {
        /// Channel.
        channel: ChannelId,
        /// Value expression.
        value: ExprId,
    },
    /// Channel receive (1 cycle once data is available; blocks before).
    Recv {
        /// Channel.
        channel: ChannelId,
        /// Destination variable.
        dst: VarId,
    },
    /// Assert the request line (1 cycle).
    ReqAssert {
        /// Arbiter.
        arbiter: ArbiterId,
    },
    /// Block until granted (free on the granted cycle).
    AwaitGrant {
        /// Arbiter.
        arbiter: ArbiterId,
    },
    /// Block until granted or until `cycles` stalled cycles have
    /// elapsed; `dst` records the outcome (1 = granted, 0 = timeout).
    /// Free on the granted cycle and on the timeout edge.
    AwaitGrantFor {
        /// Arbiter.
        arbiter: ArbiterId,
        /// Maximum stalled cycles before giving up.
        cycles: u32,
        /// Outcome variable.
        dst: VarId,
    },
    /// Deassert the request line (1 cycle).
    ReqDeassert {
        /// Arbiter.
        arbiter: ArbiterId,
    },
    /// Initialize loop counter `slot` to `times` (free).
    LoopInit {
        /// Counter slot.
        slot: usize,
        /// Iteration count.
        times: u32,
    },
    /// Decrement counter `slot`; jump to `target` while nonzero (free).
    LoopBack {
        /// Counter slot.
        slot: usize,
        /// First instruction of the loop body.
        target: usize,
    },
    /// Jump if `cond == 0` (1 cycle — the condition evaluation).
    BranchIfZero {
        /// Condition expression.
        cond: ExprId,
        /// Jump target when zero.
        target: usize,
    },
    /// Unconditional jump (free).
    Jump {
        /// Jump target.
        target: usize,
    },
}

/// An expression of a [`FlatProgram`]: the index of its root in the
/// program's expression pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprId(u32);

/// One node of a program's expression pool; operands are pool indices.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    Lit(u64),
    Var(VarId),
    Bin(BinOp, u32, u32),
}

/// A flattened program.
///
/// Every expression lives in one pool, so a compiled program owns two
/// allocations however many expressions it has.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatProgram {
    instrs: Vec<Instr>,
    exprs: Vec<Node>,
    num_vars: u32,
    num_loop_slots: usize,
}

impl FlatProgram {
    /// Flattens `program`.
    pub fn compile(program: &Program) -> Self {
        let mut c = Compiler::default();
        c.emit_block(program.ops());
        FlatProgram {
            instrs: c.instrs,
            exprs: c.exprs,
            num_vars: program.num_vars(),
            num_loop_slots: c.next_slot,
        }
    }

    /// The instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Evaluates expression `e` over the task-local `vars`, exactly as
    /// [`Expr::eval`] evaluates the expression it was compiled from.
    pub fn eval(&self, e: ExprId, vars: &[u64]) -> u64 {
        match self.exprs[e.0 as usize] {
            Node::Lit(v) => v,
            Node::Var(id) => vars.get(id.index()).copied().unwrap_or(0),
            Node::Bin(op, a, b) => op.apply(self.eval(ExprId(a), vars), self.eval(ExprId(b), vars)),
        }
    }

    /// Number of task-local variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of loop-counter slots.
    pub fn num_loop_slots(&self) -> usize {
        self.num_loop_slots
    }
}

#[derive(Default)]
struct Compiler {
    instrs: Vec<Instr>,
    exprs: Vec<Node>,
    next_slot: usize,
}

impl Compiler {
    /// Adds `e` to the expression pool, operands first.
    fn expr(&mut self, e: &Expr) -> ExprId {
        let node = match e {
            Expr::Lit(v) => Node::Lit(*v),
            Expr::Var(id) => Node::Var(*id),
            Expr::Bin(op, a, b) => Node::Bin(*op, self.expr(a).0, self.expr(b).0),
        };
        self.exprs.push(node);
        ExprId(self.exprs.len() as u32 - 1)
    }

    fn emit_block(&mut self, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Set { dst, value } => {
                    let value = self.expr(value);
                    self.instrs.push(Instr::Set { dst: *dst, value });
                }
                Op::Compute { cycles } => self.instrs.push(Instr::Compute { cycles: *cycles }),
                Op::MemRead { segment, addr, dst } => {
                    let addr = self.expr(addr);
                    self.instrs.push(Instr::MemRead {
                        segment: *segment,
                        addr,
                        dst: *dst,
                    });
                }
                Op::MemWrite {
                    segment,
                    addr,
                    value,
                } => {
                    let (addr, value) = (self.expr(addr), self.expr(value));
                    self.instrs.push(Instr::MemWrite {
                        segment: *segment,
                        addr,
                        value,
                    });
                }
                Op::Send { channel, value } => {
                    let value = self.expr(value);
                    self.instrs.push(Instr::Send {
                        channel: *channel,
                        value,
                    });
                }
                Op::Recv { channel, dst } => self.instrs.push(Instr::Recv {
                    channel: *channel,
                    dst: *dst,
                }),
                Op::ReqAssert { arbiter } => {
                    self.instrs.push(Instr::ReqAssert { arbiter: *arbiter })
                }
                Op::AwaitGrant { arbiter } => {
                    self.instrs.push(Instr::AwaitGrant { arbiter: *arbiter })
                }
                Op::AwaitGrantFor {
                    arbiter,
                    cycles,
                    dst,
                } => self.instrs.push(Instr::AwaitGrantFor {
                    arbiter: *arbiter,
                    cycles: *cycles,
                    dst: *dst,
                }),
                Op::ReqDeassert { arbiter } => {
                    self.instrs.push(Instr::ReqDeassert { arbiter: *arbiter })
                }
                Op::Repeat { times, body } => {
                    if *times == 0 {
                        continue;
                    }
                    let slot = self.next_slot;
                    self.next_slot += 1;
                    self.instrs.push(Instr::LoopInit {
                        slot,
                        times: *times,
                    });
                    let body_start = self.instrs.len();
                    self.emit_block(body);
                    self.instrs.push(Instr::LoopBack {
                        slot,
                        target: body_start,
                    });
                }
                Op::IfNonZero {
                    cond,
                    then_ops,
                    else_ops,
                } => {
                    let branch_at = self.instrs.len();
                    let cond = self.expr(cond);
                    self.instrs.push(Instr::BranchIfZero {
                        cond,
                        target: usize::MAX, // patched below
                    });
                    self.emit_block(then_ops);
                    if else_ops.is_empty() {
                        let end = self.instrs.len();
                        self.patch_branch(branch_at, end);
                    } else {
                        let jump_at = self.instrs.len();
                        self.instrs.push(Instr::Jump { target: usize::MAX });
                        let else_start = self.instrs.len();
                        self.patch_branch(branch_at, else_start);
                        self.emit_block(else_ops);
                        let end = self.instrs.len();
                        if let Instr::Jump { target } = &mut self.instrs[jump_at] {
                            *target = end;
                        }
                    }
                }
            }
        }
    }

    fn patch_branch(&mut self, at: usize, target: usize) {
        if let Instr::BranchIfZero { target: t, .. } = &mut self.instrs[at] {
            *t = target;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(i: u32) -> SegmentId {
        SegmentId::new(i)
    }

    #[test]
    fn straight_line_is_one_to_one() {
        let p = Program::build(|p| {
            p.compute(3);
            p.mem_write(seg(0), Expr::lit(0), Expr::lit(1));
        });
        let f = FlatProgram::compile(&p);
        assert_eq!(f.instrs().len(), 2);
        assert!(matches!(f.instrs()[0], Instr::Compute { cycles: 3 }));
    }

    #[test]
    fn loops_become_init_body_back() {
        let p = Program::build(|p| {
            p.repeat(4, |p| p.compute(1));
        });
        let f = FlatProgram::compile(&p);
        assert_eq!(f.num_loop_slots(), 1);
        assert!(matches!(f.instrs()[0], Instr::LoopInit { times: 4, .. }));
        assert!(matches!(f.instrs()[1], Instr::Compute { .. }));
        assert!(matches!(f.instrs()[2], Instr::LoopBack { target: 1, .. }));
    }

    #[test]
    fn zero_trip_loops_vanish() {
        let p = Program::build(|p| {
            p.repeat(0, |p| p.compute(1));
        });
        let f = FlatProgram::compile(&p);
        assert!(f.instrs().is_empty());
    }

    #[test]
    fn nested_loops_use_distinct_slots() {
        let p = Program::build(|p| {
            p.repeat(2, |p| {
                p.repeat(3, |p| p.compute(1));
            });
        });
        let f = FlatProgram::compile(&p);
        assert_eq!(f.num_loop_slots(), 2);
    }

    #[test]
    fn if_else_branches_and_joins() {
        let p = Program::build(|p| {
            let v = p.let_(Expr::lit(1));
            p.if_else(Expr::var(v), |p| p.compute(10), |p| p.compute(20));
            p.compute(30);
        });
        let f = FlatProgram::compile(&p);
        // set, branch, then-compute, jump, else-compute, tail-compute
        assert_eq!(f.instrs().len(), 6);
        let Instr::BranchIfZero { target, .. } = &f.instrs()[1] else {
            panic!("expected branch");
        };
        assert_eq!(*target, 4); // else branch
        let Instr::Jump { target } = &f.instrs()[3] else {
            panic!("expected jump");
        };
        assert_eq!(*target, 5); // join point
    }

    #[test]
    fn pooled_expressions_evaluate_like_the_source_tree() {
        let e = Expr::add(
            Expr::var(VarId::new(1)),
            Expr::bin(
                BinOp::Sub,
                Expr::lit(2),
                Expr::add(Expr::var(VarId::new(0)), Expr::var(VarId::new(9))),
            ),
        );
        let p = Program::build(|p| {
            let v = p.let_(Expr::lit(0));
            p.set(v, e.clone());
        });
        let f = FlatProgram::compile(&p);
        let Instr::Set { value, .. } = f.instrs()[1] else {
            panic!("expected set");
        };
        // Var 9 is out of range and reads 0, as in the source tree.
        for vars in [[0, 0], [5, 7], [u64::MAX, 3]] {
            assert_eq!(f.eval(value, &vars), e.eval(&vars), "{vars:?}");
        }
    }

    #[test]
    fn if_without_else_jumps_past_then() {
        let p = Program::build(|p| {
            let v = p.let_(Expr::lit(0));
            p.if_else(Expr::var(v), |p| p.compute(10), |_| {});
        });
        let f = FlatProgram::compile(&p);
        let Instr::BranchIfZero { target, .. } = &f.instrs()[1] else {
            panic!("expected branch");
        };
        assert_eq!(*target, 3);
    }
}
