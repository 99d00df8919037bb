package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// imageDigest hashes an image: its page count and break, every byte below
// the break in address order, then the program's disassembly. It reads a
// clone, since a read of an untouched page installs a zero page.
func imageDigest(inst *Instance) string {
	h := sha256.New()
	_ = binary.Write(h, binary.LittleEndian, []uint64{uint64(inst.Mem.Pages()), inst.Mem.Brk()})
	m := inst.Mem.Clone()
	buf := make([]byte, 1<<16)
	for addr := uint64(0); addr < m.Brk(); addr += uint64(len(buf)) {
		m.ReadBytes(addr, buf)
		h.Write(buf)
	}
	h.Write([]byte(inst.Prog.Disasm()))
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestImageDigests pins every workload image byte for byte: every
// workload at TinyScale, and the GAP and G500 images at QuickScale
// (sim.QuickParams' scale), where the graph inputs are 2^16 vertices. The
// digests were generated before the graph generator was rewritten and
// graphs moved into the artifact store.
func TestImageDigests(t *testing.T) {
	quick := Scale{GraphNodes: 1 << 16, Elems: 1 << 18, Seed: 42}
	check := func(sc Scale, names []string, want map[string]string) {
		t.Helper()
		for _, name := range names {
			spec, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := imageDigest(spec.Build(sc)); got != want[name] {
				t.Errorf("%s at %+v: digest %s, want %s", name, sc, got, want[name])
			}
		}
	}
	check(TinyScale(), Names(), tinyDigests)
	var graphs []string
	for _, s := range Group("gap") {
		graphs = append(graphs, s.Name)
	}
	check(quick, append(graphs, "G500"), quickDigests)
}

var tinyDigests = map[string]string{
	"BC_KR":     "8149e5f34ffe365140189cfa",
	"BC_LJN":    "272683b7fe8c7982f47a96f5",
	"BC_ORK":    "eb9b645fe7573eb416f4598f",
	"BC_TW":     "039101a205e113efbc668d6c",
	"BC_UR":     "638dfa7a1e93969cb6a904af",
	"BFS_KR":    "2bb1ce700a350346aca11d98",
	"BFS_LJN":   "ef4aad0aeefe7865a76e1eee",
	"BFS_ORK":   "a0a2925687d1217838e8e907",
	"BFS_TW":    "4fc6bc9acc752297f274e4f5",
	"BFS_UR":    "601fa6b8b7f5fc26f54f674b",
	"CC_KR":     "af32029e886eea50d10cd41a",
	"CC_LJN":    "331a759061708f0b1c84bef0",
	"CC_ORK":    "102941508f54367ba0086694",
	"CC_TW":     "8ae6c254d2ee3d47bb67299f",
	"CC_UR":     "389f508812af534faa62a085",
	"Camel":     "9ad01bc66348abc9490b8c6e",
	"G500":      "523736bcb8e8edd30a8c905c",
	"HJ2":       "fd9778ba75775c5b804ec4e0",
	"HJ8":       "182d7fcbb7279098bac9a464",
	"Kangr":     "a947d40f4f1176fb112286b8",
	"NAS-CG":    "0bf4430c173ebba6d827f51d",
	"NAS-IS":    "22e7a1d733a16a0018f45966",
	"PR_KR":     "41581ad0484c37df0e325b42",
	"PR_LJN":    "4bafa4435a8c1fe51372bcee",
	"PR_ORK":    "1c16f6e87c25f4531a073e4e",
	"PR_TW":     "d4ced48775e79602ccbb3948",
	"PR_UR":     "cf15bcc911c25dc9342378fb",
	"Randacc":   "3074ee805342bdda727c3cbb",
	"SSSP_KR":   "0ed07855b986ea5c76c423b9",
	"SSSP_LJN":  "0bde5e1587d0a50ed9d547d3",
	"SSSP_ORK":  "e74eb8331f874fc53994d55f",
	"SSSP_TW":   "1b02982647ca73350b15c4a8",
	"SSSP_UR":   "bddf24243de6f27c59104120",
	"blender":   "c273d9e628f65d4a9dceedf8",
	"bwaves":    "c273d9e628f65d4a9dceedf8",
	"cactuBSSN": "01aa5e6aa97c8f2aaf7e2edb",
	"cam4":      "01aa5e6aa97c8f2aaf7e2edb",
	"deepsjeng": "43af410816daf565ba1abc56",
	"exchange2": "d3945e449acac77e4617d979",
	"fotonik3d": "01aa5e6aa97c8f2aaf7e2edb",
	"gcc":       "76405054db71512503f0cd6c",
	"imagick":   "01aa5e6aa97c8f2aaf7e2edb",
	"lbm":       "01aa5e6aa97c8f2aaf7e2edb",
	"leela":     "ee9d4c39d4e1971791966823",
	"mcf":       "484ec256959d55f6a155ba21",
	"nab":       "c273d9e628f65d4a9dceedf8",
	"namd":      "c273d9e628f65d4a9dceedf8",
	"omnetpp":   "f08c1f0589310c8300298f6a",
	"parest":    "01aa5e6aa97c8f2aaf7e2edb",
	"perlbench": "f61fa698e7f00e1e438fcb8c",
	"povray":    "c273d9e628f65d4a9dceedf8",
	"roms":      "c273d9e628f65d4a9dceedf8",
	"wrf":       "01aa5e6aa97c8f2aaf7e2edb",
	"x264":      "01aa5e6aa97c8f2aaf7e2edb",
	"xalancbmk": "c56d576743a3379651a42fec",
	"xz":        "1c903d0994f9e36fd780942a",
}

var quickDigests = map[string]string{
	"BC_KR":    "f41c9eb1a60714c5ee786a92",
	"BC_LJN":   "59ca39d1032b89f302d10db2",
	"BC_ORK":   "ac75e1e91b63571cf146ba91",
	"BC_TW":    "62fa2357d3f7e6499945c7c0",
	"BC_UR":    "2235e954ada76633c813e0ce",
	"BFS_KR":   "fd04b88506b751dd16ca5e1c",
	"BFS_LJN":  "c210022a7bddace59c971c61",
	"BFS_ORK":  "07a2a956dd324e0ec5bb9391",
	"BFS_TW":   "6e5b5217bfafddcfe96a974f",
	"BFS_UR":   "e7a741a813b620f5276f5f9d",
	"CC_KR":    "4e5c10928b6c5959dd73fdee",
	"CC_LJN":   "5a4456c22ce38556758a7ca6",
	"CC_ORK":   "ff9267e94fd34c98791a8cee",
	"CC_TW":    "b910077980cc31af01391808",
	"CC_UR":    "91f08df8231031ba4f6a9e01",
	"PR_KR":    "3bb389dbe32bd8757ab4fcd4",
	"PR_LJN":   "78d995efb03d16c6fb0ec94f",
	"PR_ORK":   "072c0ff4e22171bfe5e20c96",
	"PR_TW":    "9990e4758972a3d81bcab5bc",
	"PR_UR":    "d7facef58241994cf6b4d6ca",
	"SSSP_KR":  "7b435ab9f2d1baebb1d9a633",
	"SSSP_LJN": "837cfee70b9bb7aba7011cfc",
	"SSSP_ORK": "fe1f91890b2af4797fad6fa1",
	"SSSP_TW":  "963bcbad0bacbafc3d0c7319",
	"SSSP_UR":  "35518c15f39e604a90218b54",
	"G500":     "da38416c1948a52eedd8bc48",
}
