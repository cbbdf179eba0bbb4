(** Least-squares line fitting.

    Used by the experiment harness to verify asymptotic claims: fit
    measured values against a predicted shape (e.g. tree height
    against [log_m N]) and report slope and goodness of fit. *)

type fit = {
  slope : float;
  intercept : float;
  r2 : float;  (** coefficient of determination; [1.] for a perfect
                   fit, [nan] when the dependent variable is constant *)
}

val linear : (float * float) list -> fit
(** [linear [(x, y); ...]] fits [y = slope * x + intercept].
    @raise Invalid_argument with fewer than 2 points or constant x. *)
