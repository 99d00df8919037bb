package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/workloads"
)

// goldenDigests pins simulated results to fixed values: the SHA-256 of
// the JSON-encoded Result of each core kind × workload × schedule at
// TinyScale. Every other bit-identity test compares two execution paths
// of the current code (replay against live, warmed against detailed),
// so a change that moves both the same way passes them all; this one
// fails. Regenerate the table only with a change that alters simulated
// results on purpose, and say so.
var goldenDigests = map[string]string{
	"IMP/BFS_KR/plain":          "f5a00e443757c7af09206b21290ab58350af68c4f1f4d58eca88c1a612ab2297",
	"IMP/BFS_KR/warm":           "a4e823d1a11029fb65e20477885f9bf240c5e831295c1f944829f5d26ab25199",
	"IMP/HJ8/plain":             "c4e2fdc6e73be0c5939d3283d08dcd4b107e97376baca248b8787928594a2759",
	"IMP/HJ8/warm":              "cae6b121bc41084b47b2cbfe96ee5056325142a4a2e39f8e903e0d95c19f2926",
	"IMP/NAS-IS/plain":          "7f0686181ed54aad362e1d5e2d00ca31f065278575545a3b572d0d41780e4425",
	"IMP/NAS-IS/warm":           "8da19d2fc056fb1f9e515cbefe27f7fc124eb818baa5193aae199bcb5248fddd",
	"SVR/BFS_KR/plain":          "80dee75ac3bafec6f122bf343ca505d77bb0881a3e1a89154d09369b0d151173",
	"SVR/BFS_KR/warm":           "6bad5f65373e982d9958dc85c88c1fdf5dc2b94baf59c4362abf38cd66a6e9b6",
	"SVR/HJ8/plain":             "7026002d7adedf4b41067cc618911699f387b1c72537d1526ddf7469daf822ce",
	"SVR/HJ8/warm":              "c1afa7b7c6f9e87596f367063fd9fe8dc12d92ee6c1b2a1c557a0c75c0b06f79",
	"SVR/NAS-IS/plain":          "c625c104d1afe54450d63a05d428a489f62789033716b8a4c8f97ae3f439b5a9",
	"SVR/NAS-IS/warm":           "46f1c42db21e7c29d686cae46e69b2d3e7b38510a5bca47fc1217291c0be9332",
	"in-order/BFS_KR/plain":     "1bd5749da2618b9ba33525c2373c3dab77131a56217e1b046109f6af5cb6347a",
	"in-order/BFS_KR/warm":      "5632ee0d6eaa257c6454f04926f0d5668154aefae2d0fcdcefab2bf0a36a5ae1",
	"in-order/HJ8/plain":        "69fd176a71951a8d5ff888db7d7342561d0da4b5471c4f55d18fc7ce7ed43127",
	"in-order/HJ8/warm":         "7fb265a8b35a39c9d5b4f2c4147cdef45a93166ad0cc4748ca80decd90d03c64",
	"in-order/NAS-IS/plain":     "f5d1c5634c38a098f118475c5065079888ee4997cfd79e061f9a399f58c030ce",
	"in-order/NAS-IS/warm":      "fdfed7a4b7e2f9f5ce95a4ea6466099df5abc20fffb80c3fef7e1e320ab5de67",
	"out-of-order/BFS_KR/plain": "124a5b53085e3948d49ac015a955ddd2a5686a762d7a2bc95c6dd831eeb9a3ae",
	"out-of-order/BFS_KR/warm":  "6d2cf257a7b98abbf027e446132a3b92cb0800e7662d7b9e69cb63cd25745c49",
	"out-of-order/HJ8/plain":    "1574455479e47fd4bc6b63d82c4b4762c874074a8470021350a1456e3bd775cf",
	"out-of-order/HJ8/warm":     "66377635ed0713c7da1177ed878114b5a63880b1e74528742bdda29fff239ae7",
	"out-of-order/NAS-IS/plain": "0aa1261cbc911951f884dbfdc365770ff9fa12d8e89f218071673584e85982d4",
	"out-of-order/NAS-IS/warm":  "cc6fe79cd767d7852d7f0e9618539800d11972b07805aa8e35c44f79cbe86a01",
}

// goldenSchedules are the two windows the digests cover: one plain
// warmup+measure window, and a two-region schedule whose gaps are warmed
// fast-forwards. TinyScale NAS-IS runs 11269 instructions, so the warmed
// schedule (2 × 5500) fits every workload.
func goldenSchedules() map[string]Params {
	sc := workloads.TinyScale()
	return map[string]Params{
		"plain": {Scale: sc, Warmup: 1_000, Measure: 6_000},
		"warm":  {Scale: sc, FastForward: 3_000, Warm: true, Regions: 2, Warmup: 500, Measure: 2_000},
	}
}

func TestGoldenDigests(t *testing.T) {
	for _, kind := range []CoreKind{InO, IMP, OoO, SVR} {
		cfg := MachineConfig(kind)
		for _, wl := range []string{"BFS_KR", "NAS-IS", "HJ8"} {
			spec := mustSpec(t, wl)
			for name, p := range goldenSchedules() {
				key := cfg.Label + "/" + wl + "/" + name
				blob, err := json.Marshal(Run(spec, cfg, p))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(blob)
				if got, want := hex.EncodeToString(sum[:]), goldenDigests[key]; got != want {
					t.Errorf("%s: result digest %s, want %s", key, got, want)
				}
			}
		}
	}
}
