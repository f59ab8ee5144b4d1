//! The instruction-set simulator (ISS) for the stack machine.
//!
//! This is the "instruction set level" of §2.2.4: it executes the ISA
//! directly, with no notion of micro-states or buses, and therefore runs
//! far faster than the RTL model — the thesis's argument for designing the
//! instruction set at ISP level before descending to RTL. The test suite
//! uses it as the independent oracle the RTL implementation must match.

use super::isa::{Instr, Op, IO_BIT, RAM_WORDS};
use rtl_core::{land, TraceEvent, Word};

/// An output event: `(device address, value)` — what `soutput` would see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputEvent {
    /// Device address (the low 12 bits of the store address).
    pub addr: Word,
    /// The value written.
    pub data: Word,
}

/// Why the ISS stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Executed a `halt`.
    Halted,
    /// Hit the step limit while still running.
    StepLimit,
    /// The program counter left the program.
    PcOutOfRange,
    /// A pop on an empty stack.
    StackUnderflow,
}

/// The ISS state and statistics.
#[derive(Debug, Clone)]
pub struct Iss {
    program: Vec<Instr>,
    /// Data/stack RAM (the RTL model's 4096-word array).
    pub ram: Vec<Word>,
    stack: Vec<Word>,
    pc: Word,
    /// Output events in order.
    pub outputs: Vec<OutputEvent>,
    /// Instructions executed.
    pub instructions: u64,
    /// Micro-cycles the RTL implementation would need (per-opcode table).
    pub predicted_cycles: u64,
}

impl Iss {
    /// Loads a program.
    pub fn new(program: Vec<Instr>) -> Self {
        Iss {
            program,
            ram: vec![0; RAM_WORDS],
            stack: Vec::new(),
            pc: 0,
            outputs: Vec::new(),
            instructions: 0,
            predicted_cycles: 0,
        }
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Current program counter.
    pub fn pc(&self) -> Word {
        self.pc
    }

    /// Runs until halt or `max_steps` instructions.
    pub fn run(&mut self, max_steps: u64) -> Stop {
        for _ in 0..max_steps {
            match self.step() {
                None => {}
                Some(stop) => return stop,
            }
        }
        Stop::StepLimit
    }

    /// Executes one instruction; `Some` when the machine stops.
    pub fn step(&mut self) -> Option<Stop> {
        let Ok(pc) = usize::try_from(self.pc) else {
            return Some(Stop::PcOutOfRange);
        };
        let Some(&instr) = self.program.get(pc) else {
            return Some(Stop::PcOutOfRange);
        };
        self.instructions += 1;
        self.predicted_cycles += instr.op.cycles();
        let mut next = self.pc + 1;

        macro_rules! pop {
            () => {
                match self.stack.pop() {
                    Some(v) => v,
                    None => return Some(Stop::StackUnderflow),
                }
            };
        }

        match instr.op {
            Op::Nop => {}
            Op::Ldc => self.stack.push(instr.operand),
            Op::Ld => {
                let addr = pop!();
                self.stack.push(self.ram[(addr & 0xFFF) as usize]);
            }
            Op::St => {
                let addr = pop!();
                let value = pop!();
                if land(addr, IO_BIT) != 0 {
                    // The RTL's RAM primitive performs an *output* operation
                    // (op 3) here — the cell array is untouched.
                    self.outputs.push(OutputEvent {
                        addr: addr & 0xFFF,
                        data: value,
                    });
                } else {
                    self.ram[(addr & 0xFFF) as usize] = value;
                }
            }
            Op::Dup => {
                let top = pop!();
                self.stack.push(top);
                self.stack.push(top);
            }
            Op::Swap => {
                let a = pop!();
                let b = pop!();
                self.stack.push(a);
                self.stack.push(b);
            }
            Op::Add | Op::Sub | Op::Mul | Op::And | Op::Eq | Op::Lt => {
                let top = pop!();
                let nos = pop!();
                let f = rtl_core::AluFn::from_word(instr.op.alu_fn().expect("binop"))
                    .expect("valid fn");
                self.stack.push(f.apply(nos, top));
            }
            Op::Neg => {
                let top = pop!();
                self.stack.push(0 - top);
            }
            Op::Bz => {
                let cond = pop!();
                if cond == 0 {
                    next = instr.operand;
                }
            }
            Op::Br => next = instr.operand,
            Op::Halt => return Some(Stop::Halted),
        }
        self.pc = next;
        None
    }

    /// The output stream rendered exactly as the RTL simulation's
    /// `soutput` renders it (integer lines for device address 1, etc.).
    pub fn rendered_output(&self) -> String {
        let events: Vec<TraceEvent> = self
            .outputs
            .iter()
            .map(|e| TraceEvent::Output {
                addr: e.addr,
                data: e.data,
            })
            .collect();
        let mut out = Vec::new();
        rtl_core::trace::render(
            &events,
            |_| unreachable!("output events are unnamed"),
            &mut out,
        )
        .expect("vec write");
        String::from_utf8(out).expect("trace output is utf-8")
    }

    /// Just the output values (ignoring device addresses).
    pub fn output_values(&self) -> Vec<Word> {
        self.outputs.iter().map(|e| e.data).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::asm::assemble;
    use super::*;

    fn run(src: &str) -> Iss {
        let mut iss = Iss::new(assemble(src).unwrap());
        assert_eq!(iss.run(1_000_000), Stop::Halted, "program must halt");
        iss
    }

    #[test]
    fn arithmetic_and_output() {
        let iss = run(".def out 4097\nldc 21\nldc 21\nadd\nldc out\nst\nhalt");
        assert_eq!(iss.output_values(), [42]);
        assert_eq!(iss.depth(), 0);
        assert_eq!(iss.rendered_output(), "42\n");
    }

    #[test]
    fn memory_round_trip() {
        let iss = run(".def cell 1024\nldc 99\nldc cell\nst\nldc cell\nld\nldc 4097\nst\nhalt");
        assert_eq!(iss.output_values(), [99]);
        assert_eq!(iss.ram[1024], 99);
    }

    #[test]
    fn branches_and_loop() {
        // Sum 1..=5, print 15.
        let iss = run(".def acc 1024\n.def i 1025\n.def out 4097\n\
             loop: ldc i\n ld\n ldc 5\n eq\n bz body\n br done\n\
             body: ldc i\n ld\n ldc 1\n add\n dup\n ldc i\n st\n\
             ldc acc\n ld\n add\n ldc acc\n st\n br loop\n\
             done: ldc acc\n ld\n ldc out\n st\n halt");
        assert_eq!(iss.output_values(), [15]);
    }

    #[test]
    fn stack_ops() {
        let iss = run(".def out 4097\nldc 1\nldc 2\nswap\nsub\nldc out\nst\nhalt");
        // swap: 2 1 → sub: 2 - 1 = 1.
        assert_eq!(iss.output_values(), [1]);

        let iss = run(".def out 4097\nldc 7\ndup\nmul\nldc out\nst\nhalt");
        assert_eq!(iss.output_values(), [49]);

        let iss = run(".def out 4097\nldc 5\nneg\nldc out\nst\nhalt");
        assert_eq!(iss.output_values(), [-5]);
    }

    #[test]
    fn comparisons() {
        let iss = run(
            ".def out 4097\nldc 3\nldc 5\nlt\nldc out\nst\nldc 5\nldc 3\nlt\nldc out\nst\nhalt",
        );
        assert_eq!(iss.output_values(), [1, 0]);
    }

    #[test]
    fn stop_conditions() {
        let mut iss = Iss::new(assemble("nop").unwrap());
        assert_eq!(iss.run(10), Stop::PcOutOfRange, "ran off the end");

        let mut iss = Iss::new(assemble("add\nhalt").unwrap());
        assert_eq!(iss.run(10), Stop::StackUnderflow);

        let mut iss = Iss::new(assemble("top: br top").unwrap());
        assert_eq!(iss.run(10), Stop::StepLimit);
    }

    #[test]
    fn statistics_accumulate() {
        let iss = run("ldc 1\nldc 2\nadd\nldc 1024\nst\nhalt");
        assert_eq!(iss.instructions, 6);
        // ldc(2)*3 + add(3) + st(3) + halt(2) = 6+3+3+2 = 14.
        assert_eq!(iss.predicted_cycles, 14);
    }
}
