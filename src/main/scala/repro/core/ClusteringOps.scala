package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** DataFrame helpers for clusterings and pair sets.
  *
  * Conventions:
  *  - a *clustering* is a DataFrame (id: Long, cluster: Long);
  *  - a *pair set* is a DataFrame (a: Long, b: Long) with a < b
  *    (canonical unordered pairs).
  */
object ClusteringOps {

  /** Canonicalize an edge/pair DataFrame with columns `a`, `b` to a < b and
    * drop self-pairs and duplicates.
    *
    * A pair with a null endpoint fails the query that reads it, with a
    * message naming the pair (`least` and `greatest` would skip the null
    * and make it a self-pair); the check adds no Spark job.
    */
  def canonicalPairs(pairs: DataFrame): DataFrame = {
    def shown(c: String) = coalesce(col(c).cast("string"), lit("null"))
    val checked = when(col("a").isNull || col("b").isNull,
      raise_error(concat(lit("pair ("), shown("a"), lit(", "), shown("b"), lit(") has a null endpoint"))))
    pairs
      .select(checked.otherwise(least(col("a"), col("b"))).as("a"),
        checked.otherwise(greatest(col("a"), col("b"))).as("b"))
      .filter(col("a") < col("b"))
      .distinct()
  }
}
