(** Timing summaries. Every timing the benchmark reports is a median plus
    the highest tail percentile the sample supports, with the sample
    count. A tail percentile needs at least {!min_beyond} samples beyond
    it; with fewer, it is refused rather than read off a handful of
    points. Percentiles interpolate linearly between order statistics
    ({!Dt_stats.Descriptive.percentile}). *)

val min_beyond : int
(** [10]: the fewest samples a tail percentile must have beyond it. *)

val beyond : n:int -> float -> int
(** [beyond ~n p]: how many of [n] samples lie beyond the [p]-th
    percentile ([p] in [\[0, 100\]]): [n - ceil (p * n / 100)]. *)

val percentile : float array -> float -> (float, string) result
(** [percentile xs p]. The median and lower percentiles need one sample;
    a percentile above the median is [Error] when fewer than
    {!min_beyond} samples lie beyond it. The input need not be sorted. *)

val ladder : float list
(** The tail percentiles tried, highest first: 99.99, 99.9, 99, 95, 90, 75. *)

type summary = {
  n : int;
  median : float;
  tail : (float * float) option;
      (** [(p, value)]: the highest percentile of {!ladder} that the
          sample supports; [None] when none does *)
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty sample. *)

val describe : scale:float -> unit:string -> summary -> string
(** ["median 2.51 s, p90 2.60 s, n=9"]: values multiplied by [scale]. *)
