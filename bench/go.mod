module github.com/stamp-go/stamp/bench

go 1.24

require github.com/stamp-go/stamp v0.0.0

replace github.com/stamp-go/stamp => ../
