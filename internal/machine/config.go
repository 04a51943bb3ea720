package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/kernel"
	"repro/internal/vfs"
)

// MaxCores is the per-node core-count ceiling. The evaluation platform
// (Xeon Gold 6230T x ThunderX2 CN9980) tops out at 32 physical cores per
// socket; 64 leaves headroom for SMT-style sweeps while keeping the
// per-core cache arrays and run-queue scans cheap.
const MaxCores = 64

// ConfigError reports an invalid Config field. It is the typed error New
// returns instead of silently clamping or defaulting a bad value.
type ConfigError struct {
	Field  string
	Value  any
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("machine: config field %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the configuration before any hardware is built. Zero
// values mean "use the default" and are always valid; out-of-range values
// produce a *ConfigError naming the field.
func (c *Config) Validate() error {
	if c.Cores < 0 {
		return &ConfigError{Field: "Cores", Value: c.Cores, Reason: "must not be negative"}
	}
	if c.Cores > MaxCores {
		return &ConfigError{Field: "Cores", Value: c.Cores,
			Reason: fmt.Sprintf("exceeds MaxCores (%d)", MaxCores)}
	}
	if c.OS < VanillaOS || c.OS > StramashOS {
		return &ConfigError{Field: "OS", Value: c.OS, Reason: "unknown OS kind"}
	}
	if c.Sched != kernel.SchedShared && c.Sched != kernel.SchedTimeSlice {
		return &ConfigError{Field: "Sched", Value: c.Sched, Reason: "unknown scheduling policy"}
	}
	if c.SchedQuantum < 0 {
		return &ConfigError{Field: "SchedQuantum", Value: c.SchedQuantum, Reason: "must not be negative"}
	}
	if err := c.validateCaches(); err != nil {
		return err
	}
	if c.IPIMicros < 0 {
		return &ConfigError{Field: "IPIMicros", Value: c.IPIMicros, Reason: "must not be negative"}
	}
	if c.NetRTTMicros < 0 {
		return &ConfigError{Field: "NetRTTMicros", Value: c.NetRTTMicros, Reason: "must not be negative"}
	}
	if c.FileCache < vfs.RegimeAuto || c.FileCache > vfs.RegimePopcorn {
		return &ConfigError{Field: "FileCache", Value: c.FileCache, Reason: "unknown page-cache regime"}
	}
	for n := 0; n < 2; n++ {
		if c.CPI[n] < 0 {
			return &ConfigError{Field: "CPI", Value: c.CPI[n], Reason: "must not be negative"}
		}
		if c.ClockHz[n] < 0 {
			return &ConfigError{Field: "ClockHz", Value: c.ClockHz[n], Reason: "must not be negative"}
		}
	}
	if err := validateTenants(c.Tenants); err != nil {
		return err
	}
	return nil
}

// validateCaches checks that every cache size the config overrides builds a
// level at the associativity New keeps (cache.LevelConfig.Validate, the
// check the cache model panics on).
func (c *Config) validateCaches() error {
	def := cache.DefaultNodeConfig(cache.Latencies{})
	type size struct {
		field string
		value any
		level cache.LevelConfig
	}
	sizes := []size{
		{"L3Size", c.L3Size, cache.LevelConfig{Size: c.L3Size, Ways: def.L3.Ways}},
		{"L2Size", c.L2Size, cache.LevelConfig{Size: c.L2Size, Ways: def.L2.Ways}},
	}
	if c.L3PerNode != nil {
		for _, n := range c.L3PerNode {
			sizes = append(sizes, size{"L3PerNode", *c.L3PerNode, cache.LevelConfig{Size: n, Ways: def.L3.Ways}})
		}
	}
	for _, s := range sizes {
		if err := s.level.Validate(); err != nil {
			return &ConfigError{Field: s.field, Value: s.value, Reason: err.Error()}
		}
	}
	return nil
}
