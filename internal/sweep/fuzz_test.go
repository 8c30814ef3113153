package sweep

import (
	"testing"

	"tradeoff/internal/trace"
)

// FuzzSpaceConfig fuzzes the JSON config parser/validator the HTTP
// service feeds untrusted payloads into: whatever the bytes, parsing
// must never panic, and any config it accepts must survive
// canonicalization and re-parsing (the memoization key path).
func FuzzSpaceConfig(f *testing.F) {
	f.Add([]byte(ExampleConfig))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"cache_kb":[8],"line_bytes":[32],"bus_bits":[32],"latency_ns":1,"transfer_ns":1,"cpu_ns":1,"hit_source":"sim:zipf"}`))
	f.Add([]byte(`{"cache_kb":[-1],"line_bytes":[1e9],"bus_bits":[7]}`))
	f.Add([]byte(`{"cache_kb":[8],"line_bytes":[32],"bus_bits":[32],"latency_ns":-1,"transfer_ns":0,"cpu_ns":1e308,"seed":18446744073709551615}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		// Accepted configs are fully defaulted and in-domain: any
		// prefixed hit source names a known workload, and the mode
		// knob is one of the three enum values.
		src, err := ParseSource(cfg.HitSource)
		if err != nil || src.String() != cfg.HitSource ||
			(src.Tier != TierModel && len(trace.ValidWorkloads([]string{src.Workload})) > 0) {
			t.Fatalf("accepted config has hit_source %q", cfg.HitSource)
		}
		if cfg.Mode != ModeExact && cfg.Mode != ModeModel && cfg.Mode != ModeAuto {
			t.Fatalf("accepted config has mode %q", cfg.Mode)
		}
		if cfg.Assoc < 0 || cfg.SimRefs < 0 || cfg.AddrBits <= 0 {
			t.Fatalf("accepted config out of domain: %+v", cfg)
		}
		// The canonical key round-trips through the parser unchanged.
		key, err := cfg.Canonical()
		if err != nil {
			t.Fatalf("canonicalizing accepted config: %v", err)
		}
		cfg2, err := ParseConfig(key)
		if err != nil {
			t.Fatalf("re-parsing canonical key: %v\nkey: %s", err, key)
		}
		key2, err := cfg2.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(key) != string(key2) {
			t.Fatalf("canonical key not a fixed point:\n%s\nvs\n%s", key, key2)
		}
	})
}
