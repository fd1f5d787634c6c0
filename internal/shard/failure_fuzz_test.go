package shard

import "testing"

// FuzzParsePlan feeds arbitrary specs to ParsePlan, the parser of
// ldserve's -chaos flag. No input may panic, and any plan it accepts
// must hold at least one event, each at an epoch ≥ 0 with a known kind:
// a join targets 0, a kill or drain a board id ≥ 0 or one of the two
// load-resolved sentinels.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"kill:hot@8", "kill:2@5", "drain:0@6", "join@4",
		"kill:hot@8,join@10,drain:0@12", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if len(p.Events) == 0 {
			t.Fatalf("%q: accepted plan has no events", spec)
		}
		for _, ev := range p.Events {
			if ev.Epoch < 0 {
				t.Fatalf("%q: event %+v at a negative epoch", spec, ev)
			}
			switch ev.Kind {
			case Join:
				if ev.Board != 0 {
					t.Fatalf("%q: join %+v targets a board", spec, ev)
				}
			case Kill, Drain:
				if ev.Board < 0 && ev.Board != HottestBoard && ev.Board != ColdestBoard {
					t.Fatalf("%q: event %+v targets no board", spec, ev)
				}
			default:
				t.Fatalf("%q: event %+v has an unknown kind", spec, ev)
			}
		}
	})
}
