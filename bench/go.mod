// The benchmark is a module of its own so that the repository's build
// file and tier-1 `go test ./...` stay untouched; it reaches the code
// under test through the replace below.
module xability/bench

go 1.24

require xability v0.0.0

replace xability => ../
