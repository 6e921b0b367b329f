(* The quorum-guard specification: every threshold comparison the
   protocol step modules are allowed to contain, in a normal form the
   quorum rules (quorum_rules.ml) can match Typedtree expressions
   against.

   The table is the cross-validation anchor between three worlds:

     - the OCaml step functions (lib/baselines, lib/core), whose
       comparisons the quorum rules normalize and look up here;
     - the model checker (lib/mc), whose mutant self-tests flip exactly
       these constants and must produce counterexamples;
     - the aba_asyn_byz TLA+ specifications of Bracha-style agreement,
       whose threshold constants the [g_tla] field cites:

           guardE  = (N + T + 2) \div 2    echo ("majority seen")
           guardR1 = T + 1                 amplify/adopt ("one correct")
           guardR2 = 2*T + 1               accept/decide ("correct quorum")

   A guard is a comparison  coeff*C  rel  base + off  where C is a
   received-message tally (or any other run-time count, e.g. a pid being
   range-checked), and base is arithmetic over the protocol parameters:

       N = process count        (field n)
       T = fault budget         (field f)
       W = committee wait bound (field w of Core.Params)

   [rel] is canonical: integer comparisons are folded onto Ge/Lt
   (c > x == c >= x+1, c <= x == c < x+1), so a spec entry matches the
   spelling-insensitive *meaning* of a guard and an off-by-one edit to
   either the constant or the comparison operator lands exactly one
   [off] away.  Integer division stays structural ([Div]) because
   /2-rounding does not commute with +1.

   [g_sites] is the number of comparison sites the module must contain
   for that guard: fewer means a wait/decide guard was dropped or
   weakened past recognition, more means a guard was duplicated.  Both
   directions fail rule quorum-coverage; an expression matching no
   entry at all fails rule quorum-guard. *)

type base =
  | Lin of { bn : int; bt : int; bw : int }
      (* bn*N + bt*T + bw*W; the additive constant lives in [off] *)
  | Div of { bn : int; bt : int; bw : int; add : int; by : int }
      (* (bn*N + bt*T + bw*W + add) / by, integer division *)

type rel = Ge | Lt

type nf = { coeff : int; rel : rel; base : base; off : int }

type guard = {
  g_name : string;      (* stable key, used in findings and DESIGN.md *)
  g_tla : string option;  (* matching constant of the TLA+ aba_asyn spec *)
  g_nf : nf;
  g_sites : int;
}

type module_spec = {
  m_module : string;  (* demangled compilation-unit name *)
  m_file : string;    (* where the guards live, for documentation *)
  m_guards : guard list;
}

let ge coeff base off = { coeff; rel = Ge; base; off }
let lt coeff base off = { coeff; rel = Lt; base; off }
let lin bn bt bw = Lin { bn; bt; bw }

(* Ben-Or (lib/baselines/benor.ml): report/proposal waits are n-f
   quorums; decide and the proposal-majority rule are the same strict
   majority 2C > N+T; adopt is the classic T+1 "one correct process
   vouches". *)
let benor =
  {
    m_module = "Benor";
    m_file = "lib/baselines/benor.ml";
    m_guards =
      [
        { g_name = "quorum-wait"; g_tla = None; g_nf = ge 1 (lin 1 (-1) 0) 0; g_sites = 2 };
        { g_name = "majority"; g_tla = None; g_nf = ge 2 (lin 1 1 0) 1; g_sites = 2 };
        { g_name = "adopt"; g_tla = Some "guardR1"; g_nf = ge 1 (lin 0 1 0) 1; g_sites = 1 };
      ];
  }

(* Bracha agreement (lib/baselines/bracha.ml): three per-step n-f waits,
   the majority-of-quorum estimate rule 2C > N-T (twice, once per value),
   decide at 2T+1 (guardR2), adopt at T+1 (guardR1), plus the originator
   range check of message validation. *)
let bracha =
  {
    m_module = "Bracha";
    m_file = "lib/baselines/bracha.ml";
    m_guards =
      [
        { g_name = "quorum-wait"; g_tla = None; g_nf = ge 1 (lin 1 (-1) 0) 0; g_sites = 3 };
        { g_name = "majority-of-quorum"; g_tla = None; g_nf = ge 2 (lin 1 (-1) 0) 1; g_sites = 2 };
        { g_name = "decide"; g_tla = Some "guardR2"; g_nf = ge 1 (lin 0 2 0) 1; g_sites = 1 };
        { g_name = "adopt"; g_tla = Some "guardR1"; g_nf = ge 1 (lin 0 1 0) 1; g_sites = 1 };
        { g_name = "origin-range"; g_tla = None; g_nf = ge 1 (lin 1 0 0) 0; g_sites = 1 };
      ];
  }

(* Bracha reliable broadcast (lib/baselines/rbc.ml): the three TLA+
   guards verbatim — echo at ceil((N+T+1)/2) spelled (N+T+2) div 2,
   ready amplification at T+1, delivery at 2T+1. *)
let rbc =
  {
    m_module = "Rbc";
    m_file = "lib/baselines/rbc.ml";
    m_guards =
      [
        {
          g_name = "echo";
          g_tla = Some "guardE";
          g_nf = ge 1 (Div { bn = 1; bt = 1; bw = 0; add = 2; by = 2 }) 0;
          g_sites = 1;
        };
        { g_name = "ready-amplify"; g_tla = Some "guardR1"; g_nf = ge 1 (lin 0 1 0) 1; g_sites = 1 };
        { g_name = "deliver"; g_tla = Some "guardR2"; g_nf = ge 1 (lin 0 2 0) 1; g_sites = 1 };
      ];
  }

(* Committee approver (lib/core/approver.ml): the OK broadcast waits for
   W echo-committee members, the certificate support slice keeps exactly
   the first W of them, and evidence retention stops once W echoes are
   banked (C <= W, canonically C < W+1). *)
let approver =
  {
    m_module = "Approver";
    m_file = "lib/core/approver.ml";
    m_guards =
      [
        { g_name = "ok-wait"; g_tla = None; g_nf = ge 1 (lin 0 0 1) 0; g_sites = 1 };
        { g_name = "support-slice"; g_tla = None; g_nf = lt 1 (lin 0 0 1) 0; g_sites = 1 };
        { g_name = "evidence-retain"; g_tla = None; g_nf = lt 1 (lin 0 0 1) 1; g_sites = 1 };
      ];
  }

(* WHP coin (lib/core/whp_coin.ml): both phases wait for W committee
   members (FIRST before the SECOND broadcast, SECOND before the local
   output). *)
let whp_coin =
  {
    m_module = "Whp_coin";
    m_file = "lib/core/whp_coin.ml";
    m_guards =
      [ { g_name = "committee-wait"; g_tla = None; g_nf = ge 1 (lin 0 0 1) 0; g_sites = 2 } ];
  }

let table = [ benor; bracha; rbc; approver; whp_coin ]

let spec_for modname =
  List.find_opt (fun m -> String.equal m.m_module modname) table

(* ----------------------------- rendering ------------------------------ *)

let pp_lin fmt (bn, bt, bw, c) =
  let any = ref false in
  let term k name =
    if k <> 0 then begin
      if !any then Format.fprintf fmt (if k > 0 then " + " else " - ")
      else if k < 0 then Format.fprintf fmt "-";
      let a = abs k in
      if a = 1 then Format.fprintf fmt "%s" name else Format.fprintf fmt "%d*%s" a name;
      any := true
    end
  in
  term bn "N";
  term bt "T";
  term bw "W";
  if c <> 0 || not !any then begin
    if !any then Format.fprintf fmt (if c >= 0 then " + " else " - ");
    Format.fprintf fmt "%d" (abs c)
  end

let pp_nf fmt { coeff; rel; base; off } =
  if coeff = 1 then Format.fprintf fmt "C" else Format.fprintf fmt "%d*C" coeff;
  Format.fprintf fmt (match rel with Ge -> " >= " | Lt -> " < ");
  match base with
  | Lin { bn; bt; bw } -> pp_lin fmt (bn, bt, bw, off)
  | Div { bn; bt; bw; add; by } ->
      Format.fprintf fmt "(%a)/%d" pp_lin (bn, bt, bw, add) by;
      if off > 0 then Format.fprintf fmt " + %d" off
      else if off < 0 then Format.fprintf fmt " - %d" (abs off)

let pp_guard fmt g =
  Format.fprintf fmt "%s: %a%s" g.g_name pp_nf g.g_nf
    (match g.g_tla with None -> "" | Some t -> Printf.sprintf " (TLA+ %s)" t)

(* ----------------------------- matching ------------------------------- *)

let base_equal a b =
  match (a, b) with
  | Lin x, Lin y -> x.bn = y.bn && x.bt = y.bt && x.bw = y.bw
  | Div x, Div y -> x.bn = y.bn && x.bt = y.bt && x.bw = y.bw && x.add = y.add && x.by = y.by
  | _ -> false

let nf_equal a b =
  a.coeff = b.coeff && a.rel = b.rel && base_equal a.base b.base && a.off = b.off

(* One constant away from [spec]: either the additive offset (covers both
   `+1` edits and </<= vs >/>= operator flips, which canonicalization
   folds into [off]) or, for division guards, the numerator rounding
   constant. *)
let nf_off_by_one ~spec nf =
  nf.coeff = spec.coeff && nf.rel = spec.rel
  &&
  match (nf.base, spec.base) with
  | Lin x, Lin y ->
      x.bn = y.bn && x.bt = y.bt && x.bw = y.bw && abs (nf.off - spec.off) = 1
  | Div x, Div y ->
      x.bn = y.bn && x.bt = y.bt && x.bw = y.bw && x.by = y.by
      && ((x.add = y.add && abs (nf.off - spec.off) = 1)
         || (abs (x.add - y.add) = 1 && nf.off = spec.off))
  | _ -> false
