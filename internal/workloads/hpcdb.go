package workloads

import (
	"fmt"
	"math"

	"repro/internal/graphs"
	"repro/internal/isa"
	"repro/internal/mem"
)

func init() {
	register(Spec{Name: "Camel", Group: "hpcdb",
		Desc:  "two interleaved stride-indirect streams with FP work",
		Build: buildCamel})
	register(Spec{Name: "G500", Group: "hpcdb",
		Desc:  "Graph500 seq-CSR reference BFS on a Kronecker graph",
		Build: buildG500})
	register(Spec{Name: "HJ2", Group: "hpcdb",
		Desc:  "hash-join probe, 2-slot buckets (branchless scan)",
		Build: func(sc Scale) *Instance { return buildHashJoin(sc, 2) }})
	register(Spec{Name: "HJ8", Group: "hpcdb",
		Desc:  "hash-join probe, 8-slot buckets (early-exit scan)",
		Build: func(sc Scale) *Instance { return buildHashJoin(sc, 8) }})
	register(Spec{Name: "Kangr", Group: "hpcdb",
		Desc:  "NAS-IS derivative with two levels of indirection",
		Build: buildKangaroo})
	register(Spec{Name: "NAS-CG", Group: "hpcdb",
		Desc:  "conjugate-gradient sparse mat-vec gather",
		Build: buildNASCG})
	register(Spec{Name: "NAS-IS", Group: "hpcdb",
		Desc:  "integer-sort histogram (stride-indirect RMW)",
		Build: buildNASIS})
	register(Spec{Name: "Randacc", Group: "hpcdb",
		Desc:  "HPCC GUPS: masked random table updates",
		Build: buildRandacc})
}

// lcg is the deterministic generator used to fill kernel inputs.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 16
}

// ---- Camel ------------------------------------------------------------
//
// Camel (Ainsworth & Jones, TOCS'19) interleaves two stride-indirect
// "humps" with floating-point work on the fetched values, stressing
// prefetchers that track only one concurrent indirect stream.
func buildCamel(sc Scale) *Instance {
	m := mem.New()
	n := uint64(sc.Elems)
	idxA := m.NewArray(n, 4)
	idxB := m.NewArray(n, 4)
	data := m.NewArray(n*2, 8)
	rng := lcg(sc.Seed)
	for i := uint64(0); i < n; i++ {
		idxA.Set(i, rng.next()%(n*2))
		idxB.Set(i, rng.next()%(n*2))
	}
	for i := uint64(0); i < n*2; i++ {
		data.SetF(i, float64(i%1000)*0.5)
	}
	out := m.NewArray(1, 8)

	b := isa.NewBuilder("Camel")
	rA := b.AllocReg()
	rB := b.AllocReg()
	rD := b.AllocReg()
	rI := b.AllocReg()
	rN := b.AllocReg()
	rT := b.AllocReg()
	rV := b.AllocReg()
	rSum := b.AllocReg()
	rHalf := b.AllocReg()
	b.LoadImm(rA, int64(idxA.Base))
	b.LoadImm(rB, int64(idxB.Base))
	b.LoadImm(rD, int64(data.Base))
	b.LoadImm(rI, 0)
	b.LoadImm(rN, int64(n))
	b.LoadImm(rSum, isa.F2B(0))
	b.LoadImmF(rHalf, 0.5)
	b.Label("loop")
	// Hump 1.
	b.ShlI(rT, rI, 2)
	b.Add(rT, rT, rA)
	b.Load(rV, rT, 0, 4) // striding idxA[i]
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rD)
	b.Load(rV, rV, 0, 8) // indirect data[idxA[i]]
	b.FMul(rV, rV, rHalf)
	b.FAdd(rSum, rSum, rV)
	// Hump 2.
	b.ShlI(rT, rI, 2)
	b.Add(rT, rT, rB)
	b.Load(rV, rT, 0, 4) // striding idxB[i]
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rD)
	b.Load(rV, rV, 0, 8) // indirect data[idxB[i]]
	b.FAdd(rSum, rSum, rV)
	b.AddI(rI, rI, 1)
	b.Cmp(rI, rN)
	b.BLT("loop")
	b.LoadImm(rT, int64(out.Base))
	b.Store(rSum, rT, 0, 8)
	b.Halt()

	check := func(img *mem.Memory) error {
		data, idxA, idxB, out := data.On(img), idxA.On(img), idxB.On(img), out.On(img)
		want := 0.0
		for i := uint64(0); i < n; i++ {
			want += data.GetF(idxA.Get(i)) * 0.5
			want += data.GetF(idxB.Get(i))
		}
		if got := out.GetF(0); math.Abs(got-want) > 1e-6 {
			return fmt.Errorf("Camel: sum = %v, want %v", got, want)
		}
		return nil
	}
	return &Instance{Name: "Camel", Prog: b.Build(), Mem: m, Check: check}
}

// ---- Graph500 seq-CSR --------------------------------------------------
//
// The Graph500 sequential reference: BFS over a Kronecker graph in CSR,
// the KR input at the next seed.
func buildG500(sc Scale) *Instance {
	return buildBFS(cachedGraph(graphs.KR, sc.GraphNodes, sc.Seed+1).clone(), "G500")
}

// ---- Hash join (Blanas et al.) ------------------------------------------
//
// No-partitioning hash join probe phase: hash each probe key, scan the
// bucket's slot array. Bucket size 2 (HJ2) keeps the scan short and
// branch-uniform; bucket size 8 (HJ8) early-exits at data-dependent slots,
// which defeats SVR's masking-only control flow (§VI-D).
func buildHashJoin(sc Scale, bucketSize int) *Instance {
	m := mem.New()
	numBuckets := uint64(sc.Elems) / 8 // power of two
	if numBuckets == 0 || numBuckets&(numBuckets-1) != 0 {
		panic("hashjoin: Elems must be a power of two >= 8")
	}
	slots := numBuckets * uint64(bucketSize)
	keys := m.NewArray(slots, 8) // 0 = empty slot
	payload := m.NewArray(slots, 8)
	probes := m.NewArray(uint64(sc.Elems), 8)
	out := m.NewArray(1, 8)

	var hashMul = uint64(0x9E3779B97F4A7C15)
	rng := lcg(sc.Seed + 7)
	// Build the table on the host, then write each array a page at a
	// time. Fill ~50% of slots with build-side tuples (packed from slot 0).
	table, pay := make([]uint64, slots), make([]uint64, slots)
	for i := uint64(0); i < slots/2; i++ {
		k := rng.next()*2 + 2 // nonzero even keys
		h := (k * hashMul) >> 40 % numBuckets
		for s := uint64(0); s < uint64(bucketSize); s++ {
			idx := h*uint64(bucketSize) + s
			if table[idx] == 0 {
				table[idx] = k
				pay[idx] = k / 2
				break
			}
		}
	}
	// Probe keys: half hits, half misses (odd keys never built).
	probe := make([]uint64, probes.N)
	for i := range probe {
		if rng.next()&1 == 0 {
			probe[i] = rng.next()*2 + 2
		} else {
			probe[i] = rng.next()*2 + 1
		}
	}
	keys.SetEach(func(i uint64) uint64 { return table[i] })
	payload.SetEach(func(i uint64) uint64 { return pay[i] })
	probes.SetEach(func(i uint64) uint64 { return probe[i] })

	name := fmt.Sprintf("HJ%d", bucketSize)
	b := isa.NewBuilder(name)
	rProbes := b.AllocReg()
	rKeys := b.AllocReg()
	rPay := b.AllocReg()
	rI := b.AllocReg()
	rN := b.AllocReg()
	rKey := b.AllocReg()
	rH := b.AllocReg()
	rS := b.AllocReg()
	rSEnd := b.AllocReg()
	rSlotK := b.AllocReg()
	rT := b.AllocReg()
	rSum := b.AllocReg()
	rMul := b.AllocReg()
	b.LoadImm(rProbes, int64(probes.Base))
	b.LoadImm(rKeys, int64(keys.Base))
	b.LoadImm(rPay, int64(payload.Base))
	b.LoadImm(rI, 0)
	b.LoadImm(rN, int64(probes.N))
	b.LoadImm(rMul, int64(hashMul))
	b.LoadImm(rSum, 0)
	b.Label("loop")
	b.ShlI(rT, rI, 3)
	b.Add(rT, rT, rProbes)
	b.Load(rKey, rT, 0, 8) // striding probe key
	b.Mul(rH, rKey, rMul)  // hash
	b.ShrI(rH, rH, 40)
	b.AndI(rH, rH, int64(numBuckets-1))
	b.MulI(rS, rH, int64(bucketSize))
	if bucketSize == 2 {
		// Fixed-size bucket: the compiler if-converts the probe into
		// branchless code — both slots checked, match selected
		// arithmetically. SVR vectorizes it without divergence.
		rEq := b.AllocReg()
		rNeg := b.AllocReg()
		for s := int64(0); s < 2; s++ {
			b.ShlI(rT, rS, 3)
			b.Add(rT, rT, rKeys)
			b.Load(rSlotK, rT, s*8, 8) // indirect: slot key
			b.Xor(rEq, rSlotK, rKey)
			b.Sub(rNeg, isa.R0, rEq)
			b.Or(rEq, rEq, rNeg)
			b.ShrI(rEq, rEq, 63)
			b.XorI(rEq, rEq, 1) // 1 iff slot key == probe key
			b.ShlI(rT, rS, 3)
			b.Add(rT, rT, rPay)
			b.Load(rT, rT, s*8, 8) // indirect: payload
			b.Mul(rT, rT, rEq)
			b.Add(rSum, rSum, rT)
		}
	} else {
		b.AddI(rSEnd, rS, int64(bucketSize))
		b.Label("scan")
		b.ShlI(rT, rS, 3)
		b.Add(rT, rT, rKeys)
		b.Load(rSlotK, rT, 0, 8) // indirect: bucket slot key
		b.Cmp(rSlotK, rKey)
		b.BNE("noMatch")
		b.ShlI(rT, rS, 3)
		b.Add(rT, rT, rPay)
		b.Load(rT, rT, 0, 8) // payload on match
		b.Add(rSum, rSum, rT)
		b.Jmp("next") // early exit on match
		b.Label("noMatch")
		b.CmpI(rSlotK, 0)
		b.BEQ("next") // early exit on empty slot
		b.AddI(rS, rS, 1)
		b.Cmp(rS, rSEnd)
		b.BLT("scan")
		b.Label("next")
	}
	b.AddI(rI, rI, 1)
	b.Cmp(rI, rN)
	b.BLT("loop")
	b.LoadImm(rT, int64(out.Base))
	b.Store(rSum, rT, 0, 8)
	b.Halt()

	check := func(img *mem.Memory) error {
		probes, keys, payload, out := probes.On(img), keys.On(img), payload.On(img), out.On(img)
		want := uint64(0)
		for i := uint64(0); i < probes.N; i++ {
			k := probes.Get(i)
			h := (k * hashMul) >> 40 % numBuckets
			for s := uint64(0); s < uint64(bucketSize); s++ {
				idx := h*uint64(bucketSize) + s
				sk := keys.Get(idx)
				if sk == k {
					want += payload.Get(idx)
					break
				}
				if sk == 0 {
					break
				}
			}
		}
		if got := out.Get(0); got != want {
			return fmt.Errorf("%s: sum = %d, want %d", name, got, want)
		}
		return nil
	}
	return &Instance{Name: name, Prog: b.Build(), Mem: m, Check: check}
}

// ---- Kangaroo -----------------------------------------------------------
//
// A NAS-IS derivative with an extra level of indirection:
// hist[k2[k1[i]]]++ — beyond IMP's single-level pattern but within SVR's
// transitive taint chain.
func buildKangaroo(sc Scale) *Instance {
	m := mem.New()
	n := uint64(sc.Elems)
	k1 := m.NewArray(n, 4)
	k2 := m.NewArray(n, 4)
	hist := m.NewArray(n, 8)
	rng := lcg(sc.Seed + 13)
	for i := uint64(0); i < n; i++ {
		k1.Set(i, rng.next()%n)
		k2.Set(i, rng.next()%n)
	}

	b := isa.NewBuilder("Kangr")
	rK1 := b.AllocReg()
	rK2 := b.AllocReg()
	rH := b.AllocReg()
	rI := b.AllocReg()
	rN := b.AllocReg()
	rT := b.AllocReg()
	rV := b.AllocReg()
	rC := b.AllocReg()
	b.LoadImm(rK1, int64(k1.Base))
	b.LoadImm(rK2, int64(k2.Base))
	b.LoadImm(rH, int64(hist.Base))
	b.LoadImm(rI, 0)
	b.LoadImm(rN, int64(n))
	b.Label("loop")
	b.ShlI(rT, rI, 2)
	b.Add(rT, rT, rK1)
	b.Load(rV, rT, 0, 4) // striding k1[i]
	b.ShlI(rV, rV, 2)
	b.Add(rV, rV, rK2)
	b.Load(rV, rV, 0, 4) // indirect level 1: k2[k1[i]]
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rH)
	b.Load(rC, rV, 0, 8) // indirect level 2: hist[...]
	b.AddI(rC, rC, 1)
	b.Store(rC, rV, 0, 8)
	b.AddI(rI, rI, 1)
	b.Cmp(rI, rN)
	b.BLT("loop")
	b.Halt()

	check := func(img *mem.Memory) error {
		k1, k2, hist := k1.On(img), k2.On(img), hist.On(img)
		want := make(map[uint64]int64)
		for i := uint64(0); i < n; i++ {
			want[uint64(k2.Get(uint64(k1.Get(i))))]++
		}
		for idx, w := range want {
			if got := hist.GetI(idx); got != w {
				return fmt.Errorf("Kangr: hist[%d] = %d, want %d", idx, got, w)
			}
		}
		return nil
	}
	return &Instance{Name: "Kangr", Prog: b.Build(), Mem: m, Check: check}
}

// ---- NAS CG --------------------------------------------------------------
//
// The conjugate-gradient kernel's sparse mat-vec: per row, stream the
// values/column indices and gather x[col[k]].
func buildNASCG(sc Scale) *Instance {
	m := mem.New()
	rows := uint64(sc.Elems) / 4
	nnzPerRow := uint64(4)
	nnz := rows * nnzPerRow
	rowPtr := m.NewArray(rows+1, 4)
	colIdx := m.NewArray(nnz, 4)
	vals := m.NewArray(nnz, 8)
	x := m.NewArray(rows, 8)
	y := m.NewArray(rows, 8)
	rng := lcg(sc.Seed + 21)
	for r := uint64(0); r <= rows; r++ {
		rowPtr.Set(r, r*nnzPerRow)
	}
	for k := uint64(0); k < nnz; k++ {
		colIdx.Set(k, rng.next()%rows)
		vals.SetF(k, float64(k%97)*0.25)
	}
	for r := uint64(0); r < rows; r++ {
		x.SetF(r, float64(r%31)*1.5)
	}

	b := isa.NewBuilder("NAS-CG")
	rRP := b.AllocReg()
	rCI := b.AllocReg()
	rVal := b.AllocReg()
	rX := b.AllocReg()
	rY := b.AllocReg()
	rR := b.AllocReg()
	rN := b.AllocReg()
	rK := b.AllocReg()
	rEnd := b.AllocReg()
	rT := b.AllocReg()
	rC := b.AllocReg()
	rV := b.AllocReg()
	rXv := b.AllocReg()
	rSum := b.AllocReg()
	b.LoadImm(rRP, int64(rowPtr.Base))
	b.LoadImm(rCI, int64(colIdx.Base))
	b.LoadImm(rVal, int64(vals.Base))
	b.LoadImm(rX, int64(x.Base))
	b.LoadImm(rY, int64(y.Base))
	b.LoadImm(rR, 0)
	b.LoadImm(rN, int64(rows))
	b.Label("rows")
	b.LoadImm(rSum, isa.F2B(0))
	b.ShlI(rT, rR, 2)
	b.Add(rT, rT, rRP)
	b.Load(rK, rT, 0, 4)
	b.Load(rEnd, rT, 4, 4)
	b.Cmp(rK, rEnd)
	b.BGE("rdone")
	b.Label("inner")
	b.ShlI(rT, rK, 2)
	b.Add(rT, rT, rCI)
	b.Load(rC, rT, 0, 4) // striding col index
	b.ShlI(rT, rK, 3)
	b.Add(rT, rT, rVal)
	b.Load(rV, rT, 0, 8) // striding value
	b.ShlI(rC, rC, 3)
	b.Add(rC, rC, rX)
	b.Load(rXv, rC, 0, 8) // indirect gather x[col]
	b.FMul(rV, rV, rXv)
	b.FAdd(rSum, rSum, rV)
	b.AddI(rK, rK, 1)
	b.Cmp(rK, rEnd)
	b.BLT("inner")
	b.Label("rdone")
	b.ShlI(rT, rR, 3)
	b.Add(rT, rT, rY)
	b.Store(rSum, rT, 0, 8)
	b.AddI(rR, rR, 1)
	b.Cmp(rR, rN)
	b.BLT("rows")
	b.Halt()

	check := func(img *mem.Memory) error {
		vals, x, colIdx, y := vals.On(img), x.On(img), colIdx.On(img), y.On(img)
		for r := uint64(0); r < rows; r++ {
			want := 0.0
			for k := r * nnzPerRow; k < (r+1)*nnzPerRow; k++ {
				want += vals.GetF(k) * x.GetF(uint64(colIdx.Get(k)))
			}
			if got := y.GetF(r); math.Abs(got-want) > 1e-9 {
				return fmt.Errorf("NAS-CG: y[%d] = %v, want %v", r, got, want)
			}
		}
		return nil
	}
	return &Instance{Name: "NAS-CG", Prog: b.Build(), Mem: m, Check: check}
}

// ---- NAS IS ---------------------------------------------------------------
//
// Integer-sort bucket counting: hist[key[i]]++ — the single-level
// stride-indirect pattern IMP handles perfectly.
func buildNASIS(sc Scale) *Instance {
	m := mem.New()
	n := uint64(sc.Elems)
	keys := m.NewArray(n, 4)
	hist := m.NewArray(n, 8)
	rng := lcg(sc.Seed + 31)
	for i := uint64(0); i < n; i++ {
		keys.Set(i, rng.next()%n)
	}

	b := isa.NewBuilder("NAS-IS")
	rKeys := b.AllocReg()
	rHist := b.AllocReg()
	rI := b.AllocReg()
	rN := b.AllocReg()
	rT := b.AllocReg()
	rV := b.AllocReg()
	rC := b.AllocReg()
	b.LoadImm(rKeys, int64(keys.Base))
	b.LoadImm(rHist, int64(hist.Base))
	b.LoadImm(rI, 0)
	b.LoadImm(rN, int64(n))
	b.Label("loop")
	b.ShlI(rT, rI, 2)
	b.Add(rT, rT, rKeys)
	b.Load(rV, rT, 0, 4) // striding key load
	b.ShlI(rV, rV, 3)
	b.Add(rV, rV, rHist)
	b.Load(rC, rV, 0, 8) // indirect histogram read
	b.AddI(rC, rC, 1)
	b.Store(rC, rV, 0, 8) // indirect histogram write
	b.AddI(rI, rI, 1)
	b.Cmp(rI, rN)
	b.BLT("loop")
	b.Halt()

	check := func(img *mem.Memory) error {
		keys, hist := keys.On(img), hist.On(img)
		want := make(map[uint64]int64)
		for i := uint64(0); i < n; i++ {
			want[keys.Get(i)]++
		}
		for idx, w := range want {
			if got := hist.GetI(idx); got != w {
				return fmt.Errorf("NAS-IS: hist[%d] = %d, want %d", idx, got, w)
			}
		}
		return nil
	}
	return &Instance{Name: "NAS-IS", Prog: b.Build(), Mem: m, Check: check}
}

// ---- HPCC randacc (GUPS) ----------------------------------------------------
//
// Random-access updates T[r & mask] ^= r over a precomputed random-number
// stream (striding load). The masked, scaled address breaks IMP's linear
// base+coeff model, while SVR's transitive chain handles it.
func buildRandacc(sc Scale) *Instance {
	m := mem.New()
	n := uint64(sc.Elems)
	table := m.NewArray(n, 8)
	rans := m.NewArray(n, 8)
	rng := lcg(sc.Seed + 43)
	for i := uint64(0); i < n; i++ {
		rans.Set(i, rng.next()<<13|rng.next())
		table.Set(i, i)
	}

	b := isa.NewBuilder("Randacc")
	rTab := b.AllocReg()
	rRans := b.AllocReg()
	rI := b.AllocReg()
	rN := b.AllocReg()
	rT := b.AllocReg()
	rR := b.AllocReg()
	rAddr := b.AllocReg()
	rV := b.AllocReg()
	b.LoadImm(rTab, int64(table.Base))
	b.LoadImm(rRans, int64(rans.Base))
	b.LoadImm(rI, 0)
	b.LoadImm(rN, int64(n))
	b.Label("loop")
	b.ShlI(rT, rI, 3)
	b.Add(rT, rT, rRans)
	b.Load(rR, rT, 0, 8) // striding random value
	b.AndI(rAddr, rR, int64(n-1))
	b.ShlI(rAddr, rAddr, 3)
	b.Add(rAddr, rAddr, rTab)
	b.Load(rV, rAddr, 0, 8) // indirect table read
	b.Xor(rV, rV, rR)
	b.Store(rV, rAddr, 0, 8) // indirect table write
	b.AddI(rI, rI, 1)
	b.Cmp(rI, rN)
	b.BLT("loop")
	b.Halt()

	check := func(img *mem.Memory) error {
		rans, table := rans.On(img), table.On(img)
		want := make([]uint64, n)
		for i := uint64(0); i < n; i++ {
			want[i] = i
		}
		for i := uint64(0); i < n; i++ {
			r := rans.Get(i)
			want[r&(n-1)] ^= r
		}
		for i := uint64(0); i < n; i++ {
			if got := table.Get(i); got != want[i] {
				return fmt.Errorf("Randacc: T[%d] = %#x, want %#x", i, got, want[i])
			}
		}
		return nil
	}
	return &Instance{Name: "Randacc", Prog: b.Build(), Mem: m, Check: check}
}
