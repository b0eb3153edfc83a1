type t = int

(* decimal places of a tick *)
let places = 3

let unit = 1000

let digits s = String.for_all (fun c -> c >= '0' && c <= '9') s

let of_string s =
  let whole, frac =
    match String.index_opt s '.' with
    | None -> (s, "")
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  (* digits past the last place must be zeros *)
  let extra = String.length frac - places in
  let past = if extra > 0 then String.sub frac places extra else "" in
  if whole ^ frac = "" || String.length whole > 12
     || not (digits whole && digits frac)
     || String.exists (fun c -> c <> '0') past
  then None
  else begin
    let frac =
      if extra > 0 then String.sub frac 0 places
      else frac ^ String.make (-extra) '0'
    in
    Some (int_of_string (whole ^ frac))
  end

let to_float t = float_of_int t /. float_of_int unit

let to_string t = Printf.sprintf "%.*f" places (to_float t)
