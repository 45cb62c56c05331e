//go:build !poolcheck

package packet

// PoolCheck reports whether this build poisons released messages and
// checks that messages are live where they change hands (see
// MessagePool). Build or test with -tags poolcheck to turn it on.
const PoolCheck = false
