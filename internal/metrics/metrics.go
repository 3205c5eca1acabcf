// Package metrics provides the lock-free per-instance counter that
// components (crawler, registry, validation, prefetcher, FaaS fabric)
// expose as plain struct fields. Service-wide metrics live in
// internal/obs.
package metrics

import "sync/atomic"

// Counter is a monotonically increasing counter, safe for concurrent use.
// The zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n may be any non-negative value).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }
