let kib = 1024
let mib = 1024 * kib
let gib = 1024 * mib
let mib_n n = n * mib
let gib_n n = n * gib

let pp ppf bytes =
  let b = float_of_int bytes in
  if bytes >= gib then Fmt.pf ppf "%.1f GB" (b /. float_of_int gib)
  else if bytes >= mib then Fmt.pf ppf "%.1f MB" (b /. float_of_int mib)
  else if bytes >= kib then Fmt.pf ppf "%.1f KB" (b /. float_of_int kib)
  else Fmt.pf ppf "%d B" bytes

let to_string bytes = Fmt.str "%a" pp bytes

let div_ceil a b =
  assert (b > 0 && a >= 0);
  (a + b - 1) / b

let round_up a b = div_ceil a b * b
