type histogram = { values : int array; counts : int array; n : int }

let histogram_of_samples samples =
  let s = Array.copy samples in
  Array.sort compare s;
  let values = ref [] and counts = ref [] in
  Array.iter
    (fun v ->
      match (!values, !counts) with
      | v' :: _, c :: cs when v' = v -> counts := (c + 1) :: cs
      | _ ->
          values := v :: !values;
          counts := 1 :: !counts)
    s;
  {
    values = Array.of_list (List.rev !values);
    counts = Array.of_list (List.rev !counts);
    n = Array.length s;
  }

let total h = h.n
let runs h = List.combine (Array.to_list h.values) (Array.to_list h.counts)

let digest h =
  let b = Buffer.create (16 * Array.length h.values) in
  Array.iteri (fun i v -> Printf.bprintf b "%d:%d;" v h.counts.(i)) h.values;
  Digest.to_hex (Digest.string (Buffer.contents b))

let rank h p =
  if p <= 0. || p > 100. then invalid_arg "Calc.percentile: p outside (0, 100]";
  (* p = 99.9 is not exact in binary: snap products within rounding
     error of an integer to it before taking the ceiling. *)
  let x = p /. 100. *. float_of_int h.n in
  let x = if Float.abs (x -. Float.round x) < 1e-6 then Float.round x else Float.ceil x in
  max 1 (int_of_float x)

let percentile h p =
  if h.n = 0 then invalid_arg "Calc.percentile: empty histogram";
  let r = rank h p in
  let rec go i seen =
    let seen = seen + h.counts.(i) in
    if seen >= r then h.values.(i) else go (i + 1) seen
  in
  go 0 0

let beyond h p = h.n - rank h p
let ladder = [ 99.999; 99.99; 99.9; 99.; 90.; 50. ]

let tail_percentile h =
  if h.n = 0 then None else List.find_opt (fun p -> beyond h p >= 10) ladder

let residual_ns ~run_ns ~children_ns = List.fold_left ( - ) run_ns children_ns

let median = function
  | [] -> invalid_arg "Calc.median: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type report = {
  mutable rows : (string * float * string) list;  (* newest first *)
  mutable ratio_bases : (string * (string * string)) list;
}

let report () = { rows = []; ratio_bases = [] }
let find r name = List.find_opt (fun (n, _, _) -> n = name) r.rows

let value r name =
  match find r name with Some (_, v, _) -> v | None -> raise Not_found

let add r name ~unit v =
  if find r name <> None then invalid_arg ("Calc.add: duplicate metric " ^ name);
  r.rows <- (name, v, unit) :: r.rows

let add_ratio r name ~unit ?(scale = 1.) ?(offset = 0.) ~num ~den () =
  match (find r num, find r den) with
  | Some (_, n, _), Some (_, d, _) ->
      add r name ~unit (if d = 0. then 0. else (scale *. n /. d) +. offset);
      r.ratio_bases <- (name, (num, den)) :: r.ratio_bases
  | _ -> invalid_arg (Printf.sprintf "Calc.add_ratio: %s needs %s and %s first" name num den)

let metrics r = List.rev r.rows
let bases r = List.rev r.ratio_bases

let to_json r =
  metrics r
  |> List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
  |> String.concat ", "
  |> Printf.sprintf "{%s}"
