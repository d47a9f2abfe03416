package loadgen

import "time"

// latenessBound is the median wake-up lateness the pacer test accepts:
// three times what nanosleep shows on the reference host, a third of what
// a runtime timer does.
const latenessBound = 300 * time.Microsecond
