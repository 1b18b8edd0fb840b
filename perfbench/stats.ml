let min_beyond = 10

(* The product [p *. n] is exact for the ladder's percentiles and any
   realistic [n]; the epsilon only absorbs the inexact decimal [p]. *)
let beyond ~n p =
  n - int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then Error "no samples"
  else if p > 50.0 && beyond ~n p < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples leave %d" p
         min_beyond n (beyond ~n p))
  else Ok (Dt_stats.Descriptive.percentile xs p)

let ladder = [ 99.99; 99.9; 99.0; 95.0; 90.0; 75.0 ]

type summary = { n : int; median : float; tail : (float * float) option }

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: no samples";
  let tail =
    List.find_map
      (fun p ->
        if beyond ~n p < min_beyond then None
        else Result.to_option (percentile xs p) |> Option.map (fun v -> (p, v)))
      ladder
  in
  { n; median = Dt_stats.Descriptive.median xs; tail }

let describe ~scale ~unit s =
  let tail =
    match s.tail with
    | None -> ""
    | Some (p, v) -> Printf.sprintf ", p%g %.4g %s" p (v *. scale) unit
  in
  Printf.sprintf "median %.4g %s%s, n=%d" (s.median *. scale) unit tail s.n
