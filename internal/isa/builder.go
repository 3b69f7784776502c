package isa

import (
	"fmt"

	"uwm/internal/mem"
)

// Builder assembles a Program in two passes: emission records
// instructions and label definitions; Build resolves branch targets and
// CLFL code addresses and renders each instruction's disassembly once,
// for the simulator's trace events (Program.Disasm). Alignment helpers let gate builders place
// speculative bodies on their own cache lines — the code-alignment
// management the paper's skelly framework performs (§6.2).
type Builder struct {
	base   mem.Addr
	code   []Inst
	labels map[string]int
	errs   []error
}

// NewBuilder starts a program at the given code base address. The base
// should be line-aligned; gate code relies on deterministic line
// boundaries.
func NewBuilder(base mem.Addr) *Builder {
	return &Builder{base: base, labels: make(map[string]int)}
}

// addr returns the code address of the next emitted instruction.
func (b *Builder) addr() mem.Addr {
	return b.base + mem.Addr(len(b.code)*InstBytes)
}

// emit appends an instruction, stamping its code address.
func (b *Builder) emit(i Inst) *Builder {
	i.Addr = b.addr()
	b.code = append(b.code, i)
	return b
}

// Label defines a label at the current position. Labels must be unique.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("isa: duplicate label %q", name))
		return b
	}
	b.labels[name] = len(b.code)
	return b
}

// Align pads with NOPs until the next instruction address is a multiple
// of n bytes (n must be a power of two).
func (b *Builder) Align(n uint64) *Builder {
	if n == 0 || n&(n-1) != 0 {
		b.errs = append(b.errs, fmt.Errorf("isa: bad alignment %d", n))
		return b
	}
	for uint64(b.addr())%n != 0 {
		b.emit(Inst{Op: NOP})
	}
	return b
}

// AlignLine pads to the next cache-line boundary.
func (b *Builder) AlignLine() *Builder { return b.Align(mem.LineSize) }

// PadTo pads with NOPs until the next instruction address equals addr,
// used for deliberate long-distance placement (predictor/BTB aliasing).
func (b *Builder) PadTo(addr mem.Addr) *Builder {
	if addr < b.addr() || (addr-b.addr())%InstBytes != 0 {
		b.errs = append(b.errs, fmt.Errorf("isa: cannot pad from %#x to %#x", uint64(b.addr()), uint64(addr)))
		return b
	}
	for b.addr() < addr {
		b.emit(Inst{Op: NOP})
	}
	return b
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Inst{Op: NOP}) }

// Halt stops execution of the current entry.
func (b *Builder) Halt() *Builder { return b.emit(Inst{Op: HALT}) }

// MovI loads an immediate into dst.
func (b *Builder) MovI(dst Reg, imm int64) *Builder {
	return b.emit(Inst{Op: MOVI, Dst: dst, Imm: imm})
}

// Mov copies src into dst.
func (b *Builder) Mov(dst, src Reg) *Builder {
	return b.emit(Inst{Op: MOV, Dst: dst, Src1: src})
}

// Load emits dst ← mem64[sym+disp].
func (b *Builder) Load(dst Reg, sym mem.Symbol, disp int64) *Builder {
	return b.emit(Inst{Op: LOAD, Dst: dst, Sym: sym.Name, SymAddr: sym.Addr, Imm: disp})
}

// LoadR emits dst ← mem64[src+disp] (register-indirect; the pointer-
// chasing form the TSX assignment gates are built from).
func (b *Builder) LoadR(dst, src Reg, disp int64) *Builder {
	return b.emit(Inst{Op: LOADR, Dst: dst, Src1: src, Imm: disp})
}

// AddM emits dst ← dst + mem64[sym+disp] (add with memory operand; the
// dependency-grouping form of the paper's §4 TSX AND chain).
func (b *Builder) AddM(dst Reg, sym mem.Symbol, disp int64) *Builder {
	return b.emit(Inst{Op: ADDM, Dst: dst, Sym: sym.Name, SymAddr: sym.Addr, Imm: disp})
}

// Store emits mem64[sym+disp] ← src.
func (b *Builder) Store(sym mem.Symbol, disp int64, src Reg) *Builder {
	return b.emit(Inst{Op: STORE, Src1: src, Sym: sym.Name, SymAddr: sym.Addr, Imm: disp})
}

// StoreR emits mem64[addrReg+disp] ← src.
func (b *Builder) StoreR(addrReg Reg, disp int64, src Reg) *Builder {
	return b.emit(Inst{Op: STORR, Src1: addrReg, Src2: src, Imm: disp})
}

// Add emits dst ← s1 + s2.
func (b *Builder) Add(dst, s1, s2 Reg) *Builder {
	return b.emit(Inst{Op: ADD, Dst: dst, Src1: s1, Src2: s2})
}

// AddI emits dst ← s1 + imm.
func (b *Builder) AddI(dst, s1 Reg, imm int64) *Builder {
	return b.emit(Inst{Op: ADDI, Dst: dst, Src1: s1, Imm: imm})
}

// Sub emits dst ← s1 - s2.
func (b *Builder) Sub(dst, s1, s2 Reg) *Builder {
	return b.emit(Inst{Op: SUB, Dst: dst, Src1: s1, Src2: s2})
}

// BoolAnd emits the architectural AND instruction. Weird gates must not
// use it on weird data; it exists for harness code and for the negative
// controls in tests.
func (b *Builder) BoolAnd(dst, s1, s2 Reg) *Builder {
	return b.emit(Inst{Op: AND, Dst: dst, Src1: s1, Src2: s2})
}

// BoolOr emits the architectural OR instruction.
func (b *Builder) BoolOr(dst, s1, s2 Reg) *Builder {
	return b.emit(Inst{Op: OR, Dst: dst, Src1: s1, Src2: s2})
}

// BoolXor emits the architectural XOR instruction.
func (b *Builder) BoolXor(dst, s1, s2 Reg) *Builder {
	return b.emit(Inst{Op: XOR, Dst: dst, Src1: s1, Src2: s2})
}

// Shl emits dst ← s1 << imm.
func (b *Builder) Shl(dst, s1 Reg, imm int64) *Builder {
	return b.emit(Inst{Op: SHL, Dst: dst, Src1: s1, Imm: imm})
}

// Shr emits dst ← s1 >> imm.
func (b *Builder) Shr(dst, s1 Reg, imm int64) *Builder {
	return b.emit(Inst{Op: SHR, Dst: dst, Src1: s1, Imm: imm})
}

// Mul emits dst ← s1 * s2 on the (contention-visible) multiply unit.
func (b *Builder) Mul(dst, s1, s2 Reg) *Builder {
	return b.emit(Inst{Op: MUL, Dst: dst, Src1: s1, Src2: s2})
}

// Div emits dst ← s1 / s2; s2 == 0 faults (aborting a TSX region).
func (b *Builder) Div(dst, s1, s2 Reg) *Builder {
	return b.emit(Inst{Op: DIV, Dst: dst, Src1: s1, Src2: s2})
}

// Clflush emits a data-cache flush of the line containing sym+disp.
func (b *Builder) Clflush(sym mem.Symbol, disp int64) *Builder {
	return b.emit(Inst{Op: CLF, Sym: sym.Name, SymAddr: sym.Addr, Imm: disp})
}

// ClflushCode emits a flush of the code line containing the label.
func (b *Builder) ClflushCode(label string) *Builder {
	return b.emit(Inst{Op: CLFL, Target: label})
}

// Brz branches to label when cond == 0.
func (b *Builder) Brz(cond Reg, label string) *Builder {
	return b.emit(Inst{Op: BRZ, Src1: cond, Target: label})
}

// Brnz branches to label when cond != 0.
func (b *Builder) Brnz(cond Reg, label string) *Builder {
	return b.emit(Inst{Op: BRNZ, Src1: cond, Target: label})
}

// Jmp jumps unconditionally to label.
func (b *Builder) Jmp(label string) *Builder {
	return b.emit(Inst{Op: JMP, Target: label})
}

// Call jumps to label, leaving the return address in the link register
// R15 and a prediction on the return stack.
func (b *Builder) Call(label string) *Builder {
	return b.emit(Inst{Op: CALL, Dst: R15, Target: label})
}

// Ret returns to the address in the link register R15, predicted by
// the return stack buffer.
func (b *Builder) Ret() *Builder {
	return b.emit(Inst{Op: RET, Src1: R15})
}

// Rdtsc emits a serializing timestamp read into dst.
func (b *Builder) Rdtsc(dst Reg) *Builder {
	return b.emit(Inst{Op: RDTSC, Dst: dst})
}

// Fence emits a full serialization barrier.
func (b *Builder) Fence() *Builder { return b.emit(Inst{Op: FENCE}) }

// XBegin opens a transactional region whose abort handler is at label.
func (b *Builder) XBegin(abortLabel string) *Builder {
	return b.emit(Inst{Op: XBEGIN, Target: abortLabel})
}

// XEnd commits the current transactional region.
func (b *Builder) XEnd() *Builder { return b.emit(Inst{Op: XEND}) }

// XAbort explicitly aborts the current transactional region.
func (b *Builder) XAbort() *Builder { return b.emit(Inst{Op: XABORT}) }

// Build resolves labels, renders the disassembly and returns the
// program. It fails on duplicate labels, undefined targets, or an empty
// program.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.code) == 0 {
		return nil, fmt.Errorf("isa: empty program")
	}
	code := make([]Inst, len(b.code))
	copy(code, b.code)
	for i := range code {
		if code[i].Target == "" {
			code[i].TargetIdx = -1
			continue
		}
		idx, ok := b.labels[code[i].Target]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q at %#x", code[i].Target, uint64(code[i].Addr))
		}
		if idx >= len(code) {
			return nil, fmt.Errorf("isa: label %q points past program end", code[i].Target)
		}
		code[i].TargetIdx = idx
	}
	disasm := make([]string, len(code))
	for i := range code {
		disasm[i] = code[i].String()
	}
	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	return &Program{Base: b.base, Code: code, labels: labels, disasm: disasm}, nil
}

// MustBuild is Build panicking on error, for statically correct builders.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
