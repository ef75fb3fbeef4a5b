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
    */
  def canonicalPairs(pairs: DataFrame): DataFrame =
    pairs
      .select(least(col("a"), col("b")).as("a"), greatest(col("a"), col("b")).as("b"))
      .filter(col("a") < col("b"))
      .distinct()

  /** Intersection clustering of two clusterings over the same records:
    * (id, cluster = (expCluster, goldCluster) pair key). Returned as
    * (id: Long, ecluster: Long, gcluster: Long).
    */
  def intersection(exp: DataFrame, gold: DataFrame): DataFrame =
    exp.select(col("id"), col("cluster").as("ecluster"))
      .join(gold.select(col("id").as("gid"), col("cluster").as("gcluster")), col("id") === col("gid"))
      .select(col("id"), col("ecluster"), col("gcluster"))
}
