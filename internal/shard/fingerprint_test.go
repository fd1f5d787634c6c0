package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ldbnadapt/internal/obs"
	"ldbnadapt/internal/stream"
	"ldbnadapt/internal/ufld"
)

// TestFleetFingerprint pins the fleet coordinator's values across
// commits. Seven seeded scenarios between them take every placement
// path — saturate, failover, evacuate, consolidate, rebalance, admit
// and admit-shed — and for each the SHA-256 of three renderings must
// match the constants below: the normalized Report (its %+v form
// prints every float exactly), the Chrome trace export, and the
// metrics dump without its two wall-clock gauges (the per-board
// forecast-utilization gauges carry the placement score's bits).
// TestConcurrentMatchesLockstep compares two execution modes that
// share the placement code; this compares the code against its own
// past, so a refactor that moves one decision, one float's bits or one
// trace byte turns it red.
func TestFleetFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("pins values, not concurrency; the race target runs -short")
	}
	scenarios := append(append([]fleetScenario(nil), lockstepScenarios...),
		fleetScenario{"rebalance", func() (*ufld.Model, []*stream.Source, Config) {
			return rebalanceScenario(119)
		}},
		fleetScenario{"queue-cap", func() (*ufld.Model, []*stream.Source, Config) {
			return queueCapScenario(115)
		}},
		// Killing the hottest board mid-burst rather than at its onset
		// hands the survivors orphans big enough that energize must
		// raise their rungs.
		fleetScenario{"chaos-peak", func() (*ufld.Model, []*stream.Source, Config) {
			m, fleet := chaosScenario(67)
			return m, fleet, chaosConfig(&FailurePlan{Events: []FleetEvent{{Epoch: 12, Kind: Kill, Board: HottestBoard}}})
		}},
	)
	want := map[string][3]string{ // scenario → SHA-256 of {report, trace, metrics}
		"migration": {
			"8f9b17457739be08fbc5e462e29b2e7c508b69c64d16264d40631ee24d7bf29c",
			"d462e7cd62ea8a04b83c8b8e36f3421a9da3cc873d5d6dd7bcaaef288f5b7d2b",
			"f5d12813987378f726d3c6450e5eca8670042a23426170a39ce8a0cf66d876ec",
		},
		"chaos": {
			"f464c58e730d12c87eb9fa1759eb1fda9ac549566b26e0c21167d833752833d1",
			"728c22cb207451d04481d1facc3af8ea6c2c5eee9814358837fb2d5ba2221adb",
			"cdce7d097de54ca087f9db36271c53010cb46e2f90ff31a8965ac79def4f4371",
		},
		"rolling-upgrade": {
			"d9f138851f9612a884df5e6b03343e4551216836a875cda231d5d110f479adc7",
			"b379937860282e850954190c1a2797c43612a9237cd8df291186f5aa15c0c918",
			"59132ef4439dcc3fb9e666ae12d764d71acd5d9246c67f14183703231e26ff23",
		},
		"scale": {
			"9cb403943c30e76ccfefa3db732a762a8c96f5debf3e8a0b408d7ea3c3207fc5",
			"1cb888ed5261520a0d0485976b2b6a07ad041a86a06a18171c187a530185d1a3",
			"70e3ae13a39811cd81192080e0bc71ebceb5741df8621f513e645d095e9372d3",
		},
		"rebalance": {
			"0b2a58ad537696b7118f1babb0bc4beeb474e53dab117e103d7df40ebb8118fe",
			"dac51e97b1fc4968a0bf0cc3126bdc2c05544ab233fd008f1da0d504021335ef",
			"f1dca2bf0c9b922829bb0b13a1fd48d7de9b069db0c9cdd2a1b25aa030d7422d",
		},
		"queue-cap": {
			"a15df02968b65f11d43e3f583a6bc0415c54e5e2ea64e01eb705b75a4edf200e",
			"5e23a15bdbe9ba64eb4940bfb4de6e8a8d1c3c117dceced53c18bb53c113feae",
			"2d75c18ea1929e8034b93365283bdaf0f0f929008923fe32d0bb0ca6efeb5eb6",
		},
		"chaos-peak": {
			"2423eb388067ac56c386e7315989c677f535ec57369e48508b151ae53cef7a4a",
			"9f331f7c2cde411ba84f8ab9c9c4c2793d115c4aeb2b418de5335ef8d5087ae2",
			"7af3aaad579d69fd53f8c9c24e8d113ab2dd25a56170a3d6e44aff947e730f34",
		},
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			rep, trace := runTraced(t, func() (*ufld.Model, []*stream.Source, Config) {
				m, fleet, cfg := sc.build()
				cfg.Metrics = reg
				return m, fleet, cfg
			}, false)
			var dump bytes.Buffer
			if err := reg.WriteText(&dump); err != nil {
				t.Fatal(err)
			}
			var metrics []byte
			for _, line := range bytes.SplitAfter(dump.Bytes(), []byte("\n")) {
				if !bytes.HasPrefix(line, []byte("fleet.wall_seconds ")) &&
					!bytes.HasPrefix(line, []byte("fleet.coord_seconds ")) {
					metrics = append(metrics, line...)
				}
			}
			got := [3]string{sum([]byte(fmt.Sprintf("%+v", rep))), sum(trace), sum(metrics)}
			if got != want[sc.name] {
				t.Errorf("fingerprint moved:\n got %q\nwant %q", got, want[sc.name])
			}
		})
	}
}
