package stream

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// newTestMem returns a small deterministic memory image: a data region at
// dataBase whose words are a simple linear pattern, so loads observe
// non-zero values and indirect chains land somewhere meaningful.
const dataBase = 0x10000

func newTestMem() *mem.Memory {
	m := mem.New()
	for i := uint64(0); i < 512; i++ {
		m.WriteI64(dataBase+i*8, int64(i*7+3))
	}
	return m
}

// fuzzOps is the opcode palette the synthesizer draws from — every
// instruction class, weighted toward memory and control flow since those
// carry the interesting encoder rules.
var fuzzOps = []isa.Op{
	isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
	isa.OpXor, isa.OpShl, isa.OpShr,
	isa.OpAddI, isa.OpMulI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
	isa.OpShlI, isa.OpShrI, isa.OpLoadImm, isa.OpMin, isa.OpMax,
	isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpIToF, isa.OpFToI,
	isa.OpLoad, isa.OpLoad, isa.OpLoad, isa.OpStore, isa.OpStore,
	isa.OpCmp, isa.OpCmpI, isa.OpCmpI,
	isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLE, isa.OpBGT,
	isa.OpJmp, isa.OpNop, isa.OpHalt,
}

var fuzzSizes = [4]uint8{1, 2, 4, 8}

// synthesize turns fuzz bytes into an arbitrary-but-valid program: each 8
// input bytes become one instruction, branch targets are folded into the
// program range, and a trailing halt bounds the text. The dynamic stream
// it produces under execution is the actual fuzz input to the codec.
func synthesize(data []byte) *isa.Program {
	n := len(data) / 8
	if n == 0 {
		return nil
	}
	if n > 256 {
		n = 256
	}
	code := make([]isa.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		b := data[i*8 : i*8+8]
		in := isa.Instr{
			Op: fuzzOps[int(b[0])%len(fuzzOps)],
			Rd: isa.Reg(b[1] % isa.NumRegs),
			Ra: isa.Reg(b[2] % isa.NumRegs),
			Rb: isa.Reg(b[3] % isa.NumRegs),
		}
		raw := int64(int16(binary.LittleEndian.Uint16(b[4:6])))
		switch in.Kind() {
		case isa.KindBranch, isa.KindJump:
			in.Imm = int64(int(binary.LittleEndian.Uint16(b[4:6])) % (n + 1))
		case isa.KindLoad, isa.KindStore:
			in.Imm = raw
			in.Size = fuzzSizes[b[6]%4]
		default:
			in.Imm = raw
		}
		code = append(code, in)
	}
	code = append(code, isa.Instr{Op: isa.OpHalt})
	return &isa.Program{Name: "fuzz", Code: code}
}

// seedRegs gives the CPU address-shaped register values derived from the
// input, including one just under a page boundary so base+displacement
// accesses straddle pages.
func seedRegs(cpu *emu.CPU, data []byte) {
	seed := byte(0)
	if len(data) > 0 {
		seed = data[len(data)-1]
	}
	cpu.SetReg(1, dataBase+int64(seed))
	cpu.SetReg(2, dataBase+mem.PageSize-int64(seed%8)-1) // page-straddling base
	cpu.SetReg(3, int64(seed)*257)
	cpu.SetReg(4, -int64(seed))
	cpu.SetReg(5, dataBase+2*mem.PageSize)
}

// fuzzSeeds are the seed inputs of the fuzz targets here: a tight
// taken/not-taken branch loop, and page-straddling loads and stores
// through r2 (set just below a page boundary by seedRegs).
func fuzzSeeds() [][]byte {
	var branchy, straddle []byte
	for _, line := range [][8]byte{
		{16, 1, 0, 0, 100, 0, 0, 0}, // li r1, 100
		{16, 2, 0, 0, 0, 0, 0, 0},   // li r2, 0
		{9, 2, 2, 0, 1, 0, 0, 0},    // addi r2, r2, 1
		{31, 0, 2, 0, 2, 0, 0, 0},   // cmpi r2, 2 (alternating outcome vs r1 path)
		{35, 0, 0, 0, 2, 0, 0, 0},   // bne @2
		{33, 0, 1, 2, 0, 0, 0, 0},   // beq ...
	} {
		branchy = append(branchy, line[:]...)
	}
	for _, line := range [][8]byte{
		{25, 6, 2, 0, 0, 0, 3, 0}, // ld64 r6, [r2+0] — straddles the page
		{28, 0, 2, 6, 4, 0, 3, 0}, // st64 r6, [r2+4]
		{25, 7, 2, 0, 8, 0, 2, 0}, // ld32 r7, [r2+8]
		{9, 2, 2, 0, 16, 0, 0, 0}, // addi r2, r2, 16
		{39, 0, 0, 0, 0, 0, 0, 0}, // jmp @0
	} {
		straddle = append(straddle, line[:]...)
	}
	return [][]byte{branchy, straddle}
}

// FuzzRoundTrip executes a synthesized program (bounded steps), encodes
// the dynamic stream, and requires the decode to reproduce every record
// bit-exactly — including page-straddling addresses and taken/not-taken
// branch runs, which the seed corpus covers explicitly.
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		prog := synthesize(data)
		if prog == nil {
			t.Skip()
		}
		const maxSteps = 4096

		cpuA := emu.New(prog, newTestMem())
		seedRegs(cpuA, data)
		want := collect(cpuA, maxSteps)

		cpuB := emu.New(prog, newTestMem())
		seedRegs(cpuB, data)
		recd, err := Record(cpuB, maxSteps)
		if err != nil {
			t.Fatalf("Record: %v", err)
		}
		if recd.N != uint64(len(want)) {
			t.Fatalf("recorded %d records, want %d", recd.N, len(want))
		}

		rs := NewReplay(recd)
		var got emu.DynInstr
		for i, w := range want {
			if !rs.Next(&got) {
				t.Fatalf("stream ended at record %d of %d (err=%v)", i, len(want), rs.Err())
			}
			if got != w {
				t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, w)
			}
		}
		if rs.Next(&got) {
			t.Fatal("stream yielded a record past its end")
		}
		if rs.Err() != nil {
			t.Fatal(rs.Err())
		}
	})
}

// warmEvent is one emu.Warmer callback; kind 'h' is a run of n folded
// fetches.
type warmEvent struct {
	kind  byte // 'f' fetch, 'h' folded fetches, 'l' load, 's' store, 'b' branch
	pc    int
	addr  uint64
	taken bool
	n     uint64
}

// recordingWarmer records every callback. With fold > 0 it offers the
// aligned block of fold pcs around each fetched pc for folding.
type recordingWarmer struct {
	fold int
	evs  []warmEvent
}

func (r *recordingWarmer) WarmFetch(pc int) (lo, hi int) {
	r.evs = append(r.evs, warmEvent{kind: 'f', pc: pc})
	if r.fold == 0 {
		return 0, 0
	}
	lo = pc - pc%r.fold
	return lo, lo + r.fold
}
func (r *recordingWarmer) WarmFetchHits(pc int, n uint64) {
	r.evs = append(r.evs, warmEvent{kind: 'h', pc: pc, n: n})
}
func (r *recordingWarmer) WarmLoad(pc int, addr uint64) {
	r.evs = append(r.evs, warmEvent{kind: 'l', pc: pc, addr: addr})
}
func (r *recordingWarmer) WarmStore(pc int, addr uint64) {
	r.evs = append(r.evs, warmEvent{kind: 's', pc: pc, addr: addr})
}
func (r *recordingWarmer) WarmBranch(pc int, taken bool) {
	r.evs = append(r.evs, warmEvent{kind: 'b', pc: pc, taken: taken})
}

// foldedStream is the warm event stream Step's records imply: each
// record's fetch, then its load, store or branch event, with fetches
// folded as the Warmer contract says. A fetch inside the range the run's
// first fetch offered (fold-aligned blocks; none for fold 0) is counted,
// and the count is reported before the next unfolded fetch and where a
// fast-forward call returns, after record i for every i+1 in ends.
func foldedStream(recs []emu.DynInstr, fold int, ends map[int]bool) []warmEvent {
	var out []warmEvent
	runPC, lo, hi := 0, 0, 0
	var hits uint64
	flush := func() {
		if hits > 0 {
			out = append(out, warmEvent{kind: 'h', pc: runPC, n: hits})
			hits = 0
		}
	}
	for i, rec := range recs {
		if rec.PC >= lo && rec.PC < hi {
			hits++
		} else {
			flush()
			out = append(out, warmEvent{kind: 'f', pc: rec.PC})
			runPC = rec.PC
			if fold > 0 {
				lo = rec.PC - rec.PC%fold
				hi = lo + fold
			}
		}
		switch rec.Instr.Kind() {
		case isa.KindLoad:
			out = append(out, warmEvent{kind: 'l', pc: rec.PC, addr: rec.Addr})
		case isa.KindStore:
			out = append(out, warmEvent{kind: 's', pc: rec.PC, addr: rec.Addr})
		case isa.KindBranch:
			out = append(out, warmEvent{kind: 'b', pc: rec.PC, taken: rec.Taken})
		}
		if ends[i+1] {
			flush()
			lo, hi = 0, 0
		}
	}
	flush()
	return out
}

// FuzzFastForwardMatchesStep runs a synthesized program three ways:
// Step, FastForward without a Warmer, and FastForward with a recording
// Warmer, both fast-forwards in chunks and with a fetch-folding width
// the input chooses. Both must leave Step's architectural state and
// memory, and the warmed run must report exactly the
// fetch/load/store/branch stream Step's records imply under that
// folding.
func FuzzFastForwardMatchesStep(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := synthesize(data)
		if prog == nil {
			t.Skip()
		}
		const maxSteps = 4096
		run := func() *emu.CPU {
			cpu := emu.New(prog, newTestMem())
			seedRegs(cpu, data)
			return cpu
		}
		ref := run()
		recs := collect(ref, maxSteps)

		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		fold := []int{0, 1, 2, 4, 16}[rng.Intn(5)]
		var chunks []uint64
		ends := map[int]bool{}
		for left := maxSteps; left > 0; {
			k := min(left, 1+rng.Intn(1<<rng.Intn(13)))
			chunks = append(chunks, uint64(k))
			left -= k
			ends[maxSteps-left] = true
		}

		plain, warm := run(), run()
		w := &recordingWarmer{fold: fold}
		var ranPlain, ranWarm uint64
		for _, k := range chunks {
			ranPlain += plain.FastForward(k, nil)
			ranWarm += warm.FastForward(k, w)
		}
		for _, c := range []struct {
			name string
			ran  uint64
			cpu  *emu.CPU
		}{{"unwarmed", ranPlain, plain}, {"warmed", ranWarm, warm}} {
			if c.ran != uint64(len(recs)) {
				t.Fatalf("%s fast-forward ran %d instructions, Step %d", c.name, c.ran, len(recs))
			}
			if got, want := c.cpu.SaveArch(), ref.SaveArch(); got != want {
				t.Fatalf("%s fast-forward arch state diverges:\n got  %+v\n step %+v", c.name, got, want)
			}
			if got, want := c.cpu.Mem.Pages(), ref.Mem.Pages(); got != want {
				t.Fatalf("%s fast-forward touched %d pages, Step %d", c.name, got, want)
			}
			for _, rec := range recs {
				if rec.Instr.Kind() != isa.KindStore {
					continue
				}
				got := c.cpu.Mem.Read(rec.Addr, rec.Instr.Size)
				if want := ref.Mem.Read(rec.Addr, rec.Instr.Size); got != want {
					t.Fatalf("%s fast-forward memory at %#x = %#x, Step %#x", c.name, rec.Addr, got, want)
				}
			}
		}
		want := foldedStream(recs, fold, ends)
		if len(w.evs) != len(want) {
			t.Fatalf("fold %d: warm stream has %d events, Step's records imply %d", fold, len(w.evs), len(want))
		}
		for i := range want {
			if w.evs[i] != want[i] {
				t.Fatalf("fold %d: event %d: warm %+v, Step %+v", fold, i, w.evs[i], want[i])
			}
		}
	})
}
