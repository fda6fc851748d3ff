// Package cliflag validates command-line flag values before a run
// starts. Contradictory flags — a negative drop probability, a zero
// machine count — fail fast with one aggregated, per-flag error
// message instead of being silently clamped into a run the user did
// not ask for. It also holds the diagnostics plumbing the CLIs share
// (diag.go: -cpuprofile, -memprofile, -stats, -trace).
package cliflag

import (
	"errors"
	"fmt"
	"math"
)

// Checker accumulates flag-validation failures. The zero value is
// ready to use; call the check methods for each flag, then Err for the
// joined result (nil when every check passed).
type Checker struct {
	errs []error
}

func (c *Checker) failf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

// finite rejects NaN and ±Inf before any range check, so a garbage
// value never sneaks through a comparison that NaN answers false to.
func (c *Checker) finite(name string, v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		c.failf("%s must be a finite number, got %g", name, v)
		return false
	}
	return true
}

// Probability requires v in [0, 1].
func (c *Checker) Probability(name string, v float64) {
	if c.finite(name, v) && (v < 0 || v > 1) {
		c.failf("%s must be a probability in [0, 1], got %g", name, v)
	}
}

// NonNegative requires v ≥ 0.
func (c *Checker) NonNegative(name string, v float64) {
	if c.finite(name, v) && v < 0 {
		c.failf("%s must be ≥ 0, got %g", name, v)
	}
}

// Positive requires v > 0.
func (c *Checker) Positive(name string, v float64) {
	if c.finite(name, v) && v <= 0 {
		c.failf("%s must be > 0, got %g", name, v)
	}
}

// PositiveInt requires v > 0.
func (c *Checker) PositiveInt(name string, v int) {
	if v <= 0 {
		c.failf("%s must be > 0, got %d", name, v)
	}
}

// NonNegativeInt requires v ≥ 0, for count flags where zero selects an
// automatic default (e.g. -shards 0 = size from the worker count).
func (c *Checker) NonNegativeInt(name string, v int) {
	if v < 0 {
		c.failf("%s must be ≥ 0, got %d", name, v)
	}
}

// Check attaches an error produced elsewhere (a parser, a config
// Validate) under the flag's name; nil is ignored.
func (c *Checker) Check(name string, err error) {
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("%s: %w", name, err))
	}
}

// Err returns every accumulated failure joined into one error, or nil
// when all checks passed.
func (c *Checker) Err() error {
	return errors.Join(c.errs...)
}
