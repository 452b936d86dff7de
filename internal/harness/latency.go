package harness

import (
	"fmt"
	"time"
)

// FmtNS renders a nanosecond figure compactly for experiment tables
// (e.g. "1.2µs", "3.4ms"): latency cells are read for their magnitude,
// not their digits.
func FmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", ns)
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	}
	return fmt.Sprintf("%.2fs", float64(ns)/1e9)
}
