type t = float

let hour = 3600.0
let day = 86400.0
let week = 604800.0

let day_of t = int_of_float (t /. day)
let week_of t = int_of_float (t /. week)
