package events

// CheckFold lets the external test package (which can import flow) run the
// fold's invariants.
var CheckFold = checkFold
