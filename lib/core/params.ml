type t = {
  n : int;
  f : int;
  epsilon : float;
  d : float;
  lambda : int;
  w : int;
  b : int;
  strictly_valid : bool;
}

let default_lambda ~n =
  let l = int_of_float (Float.round (8.0 *. log (float_of_int n))) in
  max 1 l

let practical_lambda ~n =
  min n (max (default_lambda ~n) (int_of_float (6.4 *. sqrt (float_of_int n))))

let epsilon_window ~n =
  if n < 2 then None
  else begin
    let ln = log (float_of_int n) in
    let lo = Float.max (3.0 /. (8.0 *. ln)) 0.109 +. (1.0 /. (8.0 *. ln)) in
    let hi = 1.0 /. 3.0 in
    if lo < hi then Some (lo, hi) else None
  end

let d_window ~epsilon ~lambda =
  if lambda < 1 then None
  else begin
    let l = float_of_int lambda in
    let lo = Float.max (1.0 /. l) 0.0362 in
    let hi = (epsilon /. 3.0) -. (1.0 /. (3.0 *. l)) in
    if lo < hi then Some (lo, hi) else None
  end

let midpoint (lo, hi) = (lo +. hi) /. 2.0

let coin_success_bound ~epsilon =
  ((18.0 *. epsilon *. epsilon) +. (24.0 *. epsilon) -. 1.0) /. (6.0 *. (1.0 +. (6.0 *. epsilon)))

let whp_coin_success_bound ~d =
  ((18.0 *. d *. d) +. (27.0 *. d) -. 1.0)
  /. (3.0 *. (5.0 +. (6.0 *. d)) *. (1.0 -. d) *. (1.0 +. (9.0 *. d)))

let derive ~n ~epsilon ~d ~lambda ~strictly_valid =
  let f = int_of_float (Float.of_int n *. ((1.0 /. 3.0) -. epsilon)) in
  let f = max 0 f in
  let l = float_of_int lambda in
  let w = int_of_float (Float.ceil (((2.0 /. 3.0) +. (3.0 *. d)) *. l)) in
  let b = int_of_float (Float.floor (((1.0 /. 3.0) -. d) *. l)) in
  { n; f; epsilon; d; lambda; w; b; strictly_valid }

let make ?epsilon ?d ?lambda ?(strict = true) ~n () =
  if n < 2 then Error "Params.make: need n >= 2"
  else begin
    let lambda = match lambda with Some l -> l | None -> min n (default_lambda ~n) in
    if lambda < 1 then Error "Params.make: lambda must be >= 1"
    else if lambda > n then Error "Params.make: lambda must be <= n"
    else begin
      let eps_win = epsilon_window ~n in
      match (eps_win, strict) with
      | None, true -> Error (Printf.sprintf "Params.make: no valid epsilon for n = %d (need larger n)" n)
      | _ ->
          let epsilon_default =
            match eps_win with Some w -> midpoint w | None -> 0.22 (* clamped fallback *)
          in
          let epsilon = Option.value epsilon ~default:epsilon_default in
          let eps_ok =
            match eps_win with Some (lo, hi) -> epsilon > lo && epsilon < hi | None -> false
          in
          if strict && not eps_ok then
            Error
              (Printf.sprintf "Params.make: epsilon = %.4f outside the valid window %s" epsilon
                 (match eps_win with
                 | Some (lo, hi) -> Printf.sprintf "(%.4f, %.4f)" lo hi
                 | None -> "(empty)"))
          else begin
            let d_win = d_window ~epsilon ~lambda in
            let d_default =
              match d_win with
              | Some w -> midpoint w
              | None -> 0.04 (* clamped fallback *)
            in
            let d = Option.value d ~default:d_default in
            let d_ok = match d_win with Some (lo, hi) -> d > lo && d < hi | None -> false in
            if strict && not d_ok then
              Error
                (Printf.sprintf "Params.make: d = %.4f outside the valid window %s" d
                   (match d_win with
                   | Some (lo, hi) -> Printf.sprintf "(%.4f, %.4f)" lo hi
                   | None -> "(empty)"))
            else Ok (derive ~n ~epsilon ~d ~lambda ~strictly_valid:(eps_ok && d_ok))
          end
    end
  end

let make_exn ?epsilon ?d ?lambda ?strict ~n () =
  match make ?epsilon ?d ?lambda ?strict ~n () with
  | Ok t -> t
  | Error msg -> invalid_arg msg

let quorum t = t.n - t.f

let common_values_bound t =
  9.0 *. t.epsilon *. float_of_int t.n /. (1.0 +. (6.0 *. t.epsilon))

let pp fmt t =
  Format.fprintf fmt
    "@[<h>n=%d f=%d eps=%.4f d=%.4f lambda=%d W=%d B=%d%s@]" t.n t.f t.epsilon t.d t.lambda t.w
    t.b
    (if t.strictly_valid then "" else " (clamped)")
