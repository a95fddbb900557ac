package ddensity

import (
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
)

// uniformGolden holds the probabilities RunCircuit produced for uniform
// models at the last commit that ran them through its own per-gate loop
// (ApplyNoiseAfterGate over Model.KrausOps) instead of the compiled
// plan. Both apply the same Kraus sets in the same order, so the plan
// must reproduce them to the bit.
var uniformGolden = []struct {
	circuit, model string
	probs          []float64
}{
	{"entanglement_4", "paper", []float64{
		0x1.ff7e3ce82cb04p-02, 0x1.062745b66156cp-12, 0x1.062745b6621ebp-12, 0x1.087614e1aa894p-12,
		0x1.0966c70e6e307p-12, 0x1.01235ef7a3c74p-18, 0x1.01235ef787b6dp-18, 0x1.83b6805cf12e5p-10,
		0x1.879ced4955cbdp-10, 0x1.0138aa802af89p-18, 0x1.0138aa8030c26p-18, 0x1.43062f5a06d08p-10,
		0x1.452124be7f64p-10, 0x1.42fddd00b7114p-10, 0x1.42fddd00b7949p-10, 0x1.f75cbd0a28f14p-02,
	}},
	{"entanglement_4", "exact-t1", []float64{
		0x1.ff7e3ce82cb0ap-02, 0x1.062745b66156ep-12, 0x1.062745b6621ecp-12, 0x1.087614e1aa896p-12,
		0x1.0966c70e6e308p-12, 0x1.01235ef7a3c75p-18, 0x1.01235ef787b6fp-18, 0x1.83b6805cf12e7p-10,
		0x1.879ced4955cbfp-10, 0x1.0138aa802af8ap-18, 0x1.0138aa8030c29p-18, 0x1.43062f5a06d0bp-10,
		0x1.452124be7f64p-10, 0x1.42fddd00b7114p-10, 0x1.42fddd00b794bp-10, 0x1.f75cbd0a28f16p-02,
	}},
	{"qft_5", "paper", []float64{
		0x1.07bc78315222bp-05, 0x1.06aef1535c07p-05, 0x1.05a34afad010dp-05, 0x1.0497e9156781bp-05,
		0x1.0499807559a5cp-05, 0x1.038f2e3069215p-05, 0x1.0286b6b9e5c5dp-05, 0x1.017e82e61f1b7p-05,
		0x1.03918d20312bep-05, 0x1.0288489a2ff41p-05, 0x1.0180dd01b2857p-05, 0x1.0079b4c770675p-05,
		0x1.007b45b7642ddp-05, 0x1.feea51a586aap-06, 0x1.fce1be778f4ffp-06, 0x1.fad9b06bd74cap-06,
		0x1.028b6c67dbd74p-05, 0x1.018333c3ee617p-05, 0x1.007cd22fed7d5p-05, 0x1.feed676c3f476p-06,
		0x1.fef086225ef05p-06, 0x1.fce65dbe14fabp-06, 0x1.fadfd845430f6p-06, 0x1.f8d9d7683e31ap-06,
		0x1.fceb03b892846p-06, 0x1.fae2ec337e012p-06, 0x1.f8de73eafdb36p-06, 0x1.f6da7fb7fa222p-06,
		0x1.f6dd91cefe888p-06, 0x1.f4dba9c0e1ecbp-06, 0x1.f2dd55e84c2a9p-06, 0x1.f0df84930f0e6p-06,
	}},
	{"qft_5", "exact-t1", []float64{
		0x1.07bc783152223p-05, 0x1.06aef1535c068p-05, 0x1.05a34afad0106p-05, 0x1.0497e91567814p-05,
		0x1.0499807559a55p-05, 0x1.038f2e306920ep-05, 0x1.0286b6b9e5c57p-05, 0x1.017e82e61f1b1p-05,
		0x1.03918d20312b7p-05, 0x1.0288489a2ff3ap-05, 0x1.0180dd01b2851p-05, 0x1.0079b4c77066fp-05,
		0x1.007b45b7642d7p-05, 0x1.feea51a586a94p-06, 0x1.fce1be778f4f5p-06, 0x1.fad9b06bd74cp-06,
		0x1.028b6c67dbd6dp-05, 0x1.018333c3ee61p-05, 0x1.007cd22fed7cfp-05, 0x1.feed676c3f46ap-06,
		0x1.fef086225eef9p-06, 0x1.fce65dbe14f9fp-06, 0x1.fadfd845430edp-06, 0x1.f8d9d7683e311p-06,
		0x1.fceb03b89283bp-06, 0x1.fae2ec337e007p-06, 0x1.f8de73eafdb2dp-06, 0x1.f6da7fb7fa219p-06,
		0x1.f6dd91cefe87fp-06, 0x1.f4dba9c0e1ec2p-06, 0x1.f2dd55e84c2a2p-06, 0x1.f0df84930f0dfp-06,
	}},
}

// TestUniformModelsMatchRecordedProbabilities pins the plan-driven
// uniform path to uniformGolden, bit for bit.
func TestUniformModelsMatchRecordedProbabilities(t *testing.T) {
	exactT1 := noise.PaperDefaults()
	exactT1.DampingAsEvent = false
	models := map[string]noise.Model{"paper": noise.PaperDefaults(), "exact-t1": exactT1}
	circuits := map[string]*circuit.Circuit{}
	for _, c := range []*circuit.Circuit{circuit.GHZ(4), circuit.QFT(5)} {
		circuits[c.Name] = c
	}
	for _, g := range uniformGolden {
		s, err := RunCircuit(circuits[g.circuit], models[g.model])
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range s.Probabilities() {
			if p != g.probs[i] {
				t.Errorf("%s/%s: P(%d) = %x, recorded %x", g.circuit, g.model, i, p, g.probs[i])
			}
		}
	}
}
