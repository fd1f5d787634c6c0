module ldbnadapt/bench

go 1.21

require ldbnadapt v0.0.0

replace ldbnadapt => ../
