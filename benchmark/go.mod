module pbspgemm/benchmark

go 1.24

require pbspgemm v0.0.0

replace pbspgemm => ../
