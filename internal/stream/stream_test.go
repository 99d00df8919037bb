package stream

import (
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// collect runs n instructions live, returning the records.
func collect(cpu *emu.CPU, n int) []emu.DynInstr {
	out := make([]emu.DynInstr, 0, n)
	var rec emu.DynInstr
	for len(out) < n && cpu.Step(&rec) {
		out = append(out, rec)
	}
	return out
}

// TestRoundTripWorkloads encodes a real workload's stream and checks the
// decode reproduces every DynInstr field bit-exactly, for a pointer-chasing
// graph kernel and a store-heavy one.
func TestRoundTripWorkloads(t *testing.T) {
	const n = 50_000
	for _, name := range []string{"PR_KR", "Randacc"} {
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			sc := workloads.TinyScale()

			live := spec.Build(sc)
			want := collect(emu.New(live.Prog, live.Mem), n)

			recInst := spec.Build(sc)
			recd, err := Record(emu.New(recInst.Prog, recInst.Mem), n)
			if err != nil {
				t.Fatalf("Record: %v", err)
			}
			if recd.N != uint64(len(want)) {
				t.Fatalf("recorded %d records, want %d", recd.N, len(want))
			}

			replayInst := spec.Build(sc)
			rs := NewReplay(recd)
			view := NewArchView(recd, replayInst.Mem)
			var got emu.DynInstr
			for i, w := range want {
				if !rs.Next(&got) {
					t.Fatalf("stream ended at record %d of %d (err=%v)", i, len(want), rs.Err())
				}
				if got != w {
					t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, w)
				}
				view.Advance(&got)
			}
			if rs.Next(&got) {
				t.Fatalf("stream yielded a record past its end")
			}
			if rs.Err() != nil {
				t.Fatalf("decode error: %v", rs.Err())
			}

			// The view's store application must leave its image
			// bit-identical to the live image at every stored address.
			for _, w := range want {
				if w.Instr.Op == isa.OpStore {
					lv := live.Mem.Read(w.Addr, w.Instr.Size)
					rv := replayInst.Mem.Read(w.Addr, w.Instr.Size)
					if lv != rv {
						t.Fatalf("store at %#x: replay image %d, live image %d", w.Addr, rv, lv)
					}
				}
			}

			bpi := recd.BytesPerInstr()
			t.Logf("%s: %d instrs, %d bytes (%.2f B/instr)", name, recd.N, recd.Bytes(), bpi)
			if bpi > 4 {
				t.Errorf("encoding too large: %.2f bytes/instr (want <= 4)", bpi)
			}
		})
	}
}

// TestRecordAheadRestoresImage: recording a store-heavy window with
// RecordAhead must yield the same recording as Record on a copy and
// leave the shared image byte-identical to the untouched build, with the
// CPU at the window's end.
func TestRecordAheadRestoresImage(t *testing.T) {
	spec, err := workloads.Get("Randacc")
	if err != nil {
		t.Fatal(err)
	}
	sc := workloads.TinyScale()
	const n = 5_000
	ref := spec.Build(sc)
	want, err := Record(emu.New(ref.Prog, spec.Build(sc).Mem), n)
	if err != nil {
		t.Fatal(err)
	}
	inst := spec.Build(sc)
	cpu := emu.New(inst.Prog, inst.Mem)
	got, err := RecordAhead(cpu, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RecordAhead recording differs from Record's")
	}
	if cpu.SaveArch() != want.End {
		t.Errorf("cpu at %+v, want the window end %+v", cpu.SaveArch(), want.End)
	}
	stores := 0
	rs := NewReplay(got)
	var rec emu.DynInstr
	for rs.Next(&rec) {
		if rec.Instr.Op == isa.OpStore {
			stores++
			if a, b := inst.Mem.Read(rec.Addr, 8), ref.Mem.Read(rec.Addr, 8); a != b {
				t.Fatalf("image at %#x is %#x after RecordAhead, %#x before", rec.Addr, a, b)
			}
		}
	}
	if stores == 0 {
		t.Fatal("window has no stores; the test checks nothing")
	}
}

// TestRecordHalt checks a window that runs past program end: the stream
// carries exactly the executed instructions (halt included), reports the
// truncation, and ends in the halted emulator's state.
func TestRecordHalt(t *testing.T) {
	prog, err := isa.Parse("tiny", `
		li r1, 5
		addi r1, r1, 1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	recd, err := Record(emu.New(prog, newTestMem()), 100)
	if err != nil {
		t.Fatal(err)
	}
	if recd.N != 3 || !recd.Halted {
		t.Fatalf("got N=%d Halted=%v, want N=3 Halted=true", recd.N, recd.Halted)
	}
	if e := recd.End; !e.Halted || e.Seq != 3 || e.R[1] != 6 {
		t.Fatalf("end state %+v, want halted at seq 3 with r1=6", e)
	}
	rs := NewReplay(recd)
	var rec emu.DynInstr
	n := 0
	for rs.Next(&rec) {
		n++
	}
	if n != 3 {
		t.Fatalf("replay yielded %d records, want 3", n)
	}
	if rs.Err() != nil {
		t.Fatal(rs.Err())
	}
}

// TestEncoderRejectsContractBreaks checks the stream contract is enforced:
// non-consecutive Seq and program-text mismatches are errors, not silent
// corruption.
func TestEncoderRejectsContractBreaks(t *testing.T) {
	prog, err := isa.Parse("tiny", `
		li r1, 5
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}

	e := NewEncoder(prog)
	rec := emu.DynInstr{Seq: 0, PC: 0, Instr: prog.Code[0], NextPC: 1}
	if err := e.Append(&rec); err != nil {
		t.Fatalf("first append: %v", err)
	}
	bad := emu.DynInstr{Seq: 5, PC: 1, Instr: prog.Code[1], NextPC: 2}
	if err := e.Append(&bad); err == nil {
		t.Fatal("non-consecutive Seq accepted")
	}

	e = NewEncoder(prog)
	wrong := emu.DynInstr{Seq: 0, PC: 0, Instr: prog.Code[1], NextPC: 1}
	if err := e.Append(&wrong); err == nil {
		t.Fatal("Instr/program mismatch accepted")
	}

	e = NewEncoder(prog)
	outside := emu.DynInstr{Seq: 0, PC: 99, NextPC: 100}
	if err := e.Append(&outside); err == nil {
		t.Fatal("out-of-program PC accepted")
	}
}

// TestReplayRejectsCorruptBuffer checks truncated buffers surface as
// decode errors instead of panics or garbage records.
func TestReplayRejectsCorruptBuffer(t *testing.T) {
	prog, err := isa.Parse("tiny", `
		li r1, 70000
		ld64 r2, [r1+0]
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	recd, err := Record(emu.New(prog, newTestMem()), 10)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(recd.Buf); cut++ {
		trunc := &Recording{
			Prog: recd.Prog, Buf: recd.Buf[:cut], N: recd.N,
			StartSeq: recd.StartSeq, StartPC: recd.StartPC,
		}
		rs := NewReplay(trunc)
		var rec emu.DynInstr
		var n uint64
		for rs.Next(&rec) {
			n++
		}
		if n < recd.N && rs.Err() == nil {
			t.Fatalf("cut at %d: stream stopped early with no error", cut)
		}
	}
}
