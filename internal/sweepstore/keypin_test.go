package sweepstore

import (
	"testing"

	"repro/internal/experiments"
)

// TestKeyPins pins the literal content addresses of an SC17 stack spec
// and an SC17 framesim Lanes-8 spec, with the key of one shard each (the
// frame shard carries a multi-word seed list). Any change to the Spec or
// ShardConfig encodings that moves an existing key fails here; such a
// change must bump Version instead of silently orphaning stored sweeps.
func TestKeyPins(t *testing.T) {
	pins := []struct {
		spec            experiments.Spec
		specKey, shard1 string
	}{
		{
			experiments.Spec{Engine: "stack", PERs: []float64{3e-3, 8e-3}, Samples: 2, ErrorType: "x",
				MaxLogicalErrors: 3, MaxWindows: 3000, BaseSeed: 7},
			"fd45e3dcc439ef589db460331ed15e10fabba5e358333da700bef714546e6a09",
			"82194417bf044329b580a42591d0dce9c4d8687b84c7857bc80bb92bfd358b6f",
		},
		{
			experiments.Spec{Engine: "framesim", PERs: []float64{4e-3, 9e-3}, Samples: 200,
				MaxLogicalErrors: 3, MaxWindows: 1500, BaseSeed: 5150, Lanes: 8},
			"b4d8802f223c21965f68dcfdcc8eeb09b21038df1b53ec4172b3de56b6ddf0cb",
			"81f4c09ee48bd796422487d44feb5e520e43a45ca4cedb7552ff74135a231010",
		},
	}
	for _, p := range pins {
		k, err := SpecKey(p.spec)
		if err != nil {
			t.Fatal(err)
		}
		if k != p.specKey {
			t.Errorf("%s: SpecKey %s, want %s", p.spec.Engine, k, p.specKey)
		}
		n := p.spec.Normalized()
		sk, err := ShardKey(n.ShardConfig(n.Shard(1)))
		if err != nil {
			t.Fatal(err)
		}
		if sk != p.shard1 {
			t.Errorf("%s: ShardKey(shard 1) %s, want %s", p.spec.Engine, sk, p.shard1)
		}
	}
}
