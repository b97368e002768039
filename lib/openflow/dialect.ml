type t = V10 | V13

let name = function V10 -> "openflow10" | V13 -> "openflow13"

let encode = function V10 -> Of10.encode | V13 -> Of13.encode

let decode = function V10 -> Of10.decode | V13 -> Of13.decode
