module lazyrc/bench

go 1.22

require lazyrc v0.0.0

replace lazyrc => ../
