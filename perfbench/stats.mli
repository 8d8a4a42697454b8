(** Order statistics and name rules for the benchmark's reports. *)

val percentile : float array -> float -> float
(** [percentile a p], nearest rank: the smallest sample with at least
    [p]% of the samples at or below it.  Raises [Invalid_argument] on no
    samples or [p] outside (0, 100]. *)

val beyond : int -> float -> int
(** [beyond n p]: how many of [n] samples lie strictly above the
    nearest-rank [p]-th percentile sample. *)

val tail_percentile : int -> float option
(** The highest percentile of 50, 90, 99, 99.9, 99.99, 99.999 that has
    at least ten of [n] samples beyond it; [None] below 20 samples. *)

val median : float array -> float
(** Raises [Invalid_argument] on no samples. *)

val quartiles : float array -> float * float * float
(** First quartile, median and third quartile, computed exactly as
    Python's [statistics.quantiles(data, n=4)].  Needs two samples. *)

val valid_name : string -> bool
(** A metric or workload name: 1 to 64 of letters, digits, [_], [.] and
    [-], starting with a letter or digit. *)

val valid_unit : string -> bool
(** A unit: 1 to 16 of letters, digits, [_], [/], [%], [.] and [-]. *)
