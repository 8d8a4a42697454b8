(* Order statistics for the benchmark's reports.  Every function takes
   the samples unsorted and leaves the argument untouched. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let nonempty what a = if Array.length a = 0 then invalid_arg (what ^ ": no samples")

(* Nearest rank: the smallest sample with at least p% of the samples at
   or below it.  The slack keeps decimal percentiles such as 99.9 from
   rounding one rank up. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))))

let percentile a p =
  nonempty "Stats.percentile" a;
  if not (p > 0. && p <= 100.) then invalid_arg "Stats.percentile: p outside (0, 100]";
  let s = sorted a in
  s.(rank (Array.length s) p - 1)

let beyond n p = n - rank n p

let ladder = [ 99.999; 99.99; 99.9; 99.; 90.; 50. ]

let tail_percentile n = List.find_opt (fun p -> beyond n p >= 10) ladder

let median a =
  nonempty "Stats.median" a;
  let s = sorted a in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Python's [statistics.quantiles(data, n=4)] (its default "exclusive"
   method), so that the spreads printed here and the ones the steadiness
   script computes agree digit for digit. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let q i =
    let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
    let delta = (i * (n + 1)) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16 && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s
