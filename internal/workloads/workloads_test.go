package workloads

import (
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
)

// TestFunctionalCorrectness runs every evaluation workload to completion
// at tiny scale on the functional emulator and validates the
// architectural result against its Go reference. The program runs on a
// clone of the image, as every simulated cell does, so the check must
// read the memory it is given, not the untouched image it was built
// with.
func TestFunctionalCorrectness(t *testing.T) {
	for _, spec := range Evaluation() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst := spec.Build(TinyScale())
			img := inst.Mem.Clone()
			cpu := emu.New(inst.Prog, img)
			n := cpu.Run(200_000_000)
			if !cpu.Halted() {
				t.Fatalf("did not halt after %d instructions", n)
			}
			if inst.Check == nil {
				t.Fatal("evaluation workload without a Check")
			}
			if err := inst.Check(img); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSPECProxiesRun(t *testing.T) {
	for _, spec := range Group("spec") {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst := spec.Build(TinyScale())
			cpu := emu.New(inst.Prog, inst.Mem)
			if cpu.Run(100_000_000); !cpu.Halted() {
				t.Fatal("SPEC proxy did not halt")
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	// 5 GAP kernels x 5 inputs.
	gap := Group("gap")
	if len(gap) != 25 {
		t.Errorf("gap workloads = %d, want 25", len(gap))
	}
	for _, k := range []string{"BC", "BFS", "CC", "PR", "SSSP"} {
		for _, in := range []string{"KR", "LJN", "ORK", "TW", "UR"} {
			if _, err := Get(k + "_" + in); err != nil {
				t.Errorf("missing %s_%s", k, in)
			}
		}
	}
	// The 8 HPC-DB workloads of §V.
	hpcdb := Group("hpcdb")
	if len(hpcdb) != 8 {
		t.Errorf("hpcdb workloads = %d, want 8", len(hpcdb))
	}
	for _, n := range []string{"Camel", "G500", "HJ2", "HJ8", "Kangr", "NAS-CG", "NAS-IS", "Randacc"} {
		if _, err := Get(n); err != nil {
			t.Errorf("missing %s", n)
		}
	}
	// The 23 SPECrate 2017 benchmarks of Fig 14.
	if got := len(SPECNames()); got != 23 {
		t.Errorf("SPEC proxies = %d, want 23", got)
	}
	if len(Evaluation()) != 33 {
		t.Errorf("evaluation set = %d, want 33", len(Evaluation()))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("Get(nope) error = %v", err)
	}
}

func TestNamesSortedAndUnique(t *testing.T) {
	names := Names()
	seen := map[string]bool{}
	prev := ""
	for _, n := range names {
		if n <= prev && prev != "" {
			t.Errorf("names not sorted: %q after %q", n, prev)
		}
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
		prev = n
	}
}

func TestScalesAreMemoryBoundCapable(t *testing.T) {
	// BenchScale data structures must exceed the 512 KiB L2.
	inst, err := Get("NAS-IS")
	if err != nil {
		t.Fatal(err)
	}
	i := inst.Build(BenchScale())
	if i.Mem.Brk() < 2<<20 {
		t.Errorf("bench-scale footprint = %d bytes, want > 2 MiB", i.Mem.Brk())
	}
}

func TestDeterministicBuilds(t *testing.T) {
	a, _ := Get("PR_KR")
	i1 := a.Build(TinyScale())
	i2 := a.Build(TinyScale())
	if i1.Prog.Len() != i2.Prog.Len() {
		t.Error("same scale produced different programs")
	}
	if i1.Mem.Brk() != i2.Mem.Brk() {
		t.Error("same scale produced different memory layouts")
	}
}

// TestKernelDisasmRoundTrips: every kernel's disassembly reparses into an
// identical instruction stream (exercises the assembler against real
// programs).
func TestKernelDisasmRoundTrips(t *testing.T) {
	for _, spec := range Evaluation() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			orig := spec.Build(TinyScale()).Prog
			parsed, err := isa.Parse(spec.Name, orig.Disasm())
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			if parsed.Len() != orig.Len() {
				t.Fatalf("length %d != %d", parsed.Len(), orig.Len())
			}
			for i := range orig.Code {
				if parsed.Code[i] != orig.Code[i] {
					t.Fatalf("instr %d: %+v != %+v", i, parsed.Code[i], orig.Code[i])
				}
			}
		})
	}
}
