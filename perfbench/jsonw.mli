(** A JSON writer for the benchmark's result line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, one line.  Floats print with 17 significant digits, so a
    value reads back bit for bit; a non-finite float raises
    [Invalid_argument], because JSON cannot carry it. *)
