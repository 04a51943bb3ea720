package experiments

// Stat gates switch on optional, potentially large or driver-dependent
// counter families in the -json report. They share one registry so every
// CLI flag (-engine-stats, -worker-stats, -tenant-stats) goes through the
// same mechanism and new families need no new package variable. Gated
// counters appear only in the machine-readable JSON, never in the
// rendered report, which must stay small and engine-independent.
const (
	// GateEngine captures per-run simulation-driver counters (segments,
	// self-continues, hand-offs, segment cycles).
	GateEngine = "engine"
	// GateWorker emits per-worker counters from the production redis
	// server (ops, futex waits, fsync batches). Off by default so the
	// Metrics map stays small as worker counts grow.
	GateWorker = "worker"
	// GateTenant emits per-tenant capability counters (caps checked,
	// denials, revocations, frames and cache frames charged, quota hits)
	// from multi-tenant experiments.
	GateTenant = "tenant"
)

// statGates holds the enabled gates. CLIs set it once at startup before
// any experiment runs; experiments only read it, so the pool's host
// parallelism never races on it.
var statGates = map[string]bool{}

// SetStatGate enables or disables one stat family for the process.
func SetStatGate(name string, on bool) { statGates[name] = on }

// StatGate reports whether a stat family is enabled.
func StatGate(name string) bool { return statGates[name] }
